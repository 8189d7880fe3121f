#!/usr/bin/env python3
"""The repository's benchmark: three workloads, end-to-end and per-layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with the benchmark's own
tracing off; ``--trace 1`` makes the separate traced run and prints the
per-layer ledger.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A full report (and,
traced, the ledger with every span) is written under ``.perfbench-out/``.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ledger  # noqa: E402
from harness import (  # noqa: E402
    MIN_BEYOND, BenchError, bootstrap, fingerprint, metric, percentile, write_json,
)

WORKLOADS = ("paper-sweep", "cli-grids", "serve-jobs")

#: end-to-end metric -> unit; every untraced run prints all of them
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "job_s.p50": "s",
    "job_s.p90": "s",
}


def _module(workload: str):
    if workload == "paper-sweep":
        import paper_sweep as mod
    elif workload == "cli-grids":
        import cli_grids as mod
    else:
        import serve_jobs as mod
    return mod


def job_percentiles(
    latencies: Sequence[float], min_beyond: int
) -> Dict[str, Dict[str, Any]]:
    """``job_s.p50`` / ``job_s.p90`` with their sample support; a value is
    withheld (``None``) with fewer than ``min_beyond`` samples beyond it."""
    out = {}
    for q in (50, 90):
        value, beyond = percentile(latencies, q, min_beyond=min_beyond)
        out[f"job_s.p{q}"] = {"value": value, "n": len(latencies), "beyond": beyond}
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measurement budget; a workload always completes "
                             "at least one full pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="tiny grids for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        bootstrap()
        mod = _module(args.workload)
        if args.setup_probe:
            print(json.dumps({"setup_s": mod.setup_probe(args.seed, args.short)}))
            return 0
        res = mod.run(args.seed, args.seconds, bool(args.trace), args.short)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    # paper-sweep's 60 points are a fixed grid, not a sample of an
    # open-ended population: its job_s.p90 (6 beyond) is descriptive and
    # printed anyway, as every gated workload must print every metric
    min_beyond = 1 if args.workload == "paper-sweep" else MIN_BEYOND
    jobs = job_percentiles(res["latencies"], min_beyond)
    e2e = dict(res["end_to_end"])
    e2e.update({name: rec["value"] for name, rec in jobs.items()})
    if args.trace:
        metrics = {
            name: metric(res["layers"][name], unit) for name, unit in ledger.UNITS.items()
        }
    else:
        metrics = {name: metric(e2e[name], unit) for name, unit in END_TO_END.items()}

    tag = f"{args.workload}-seed{args.seed}{'-traced' if args.trace else ''}"
    report: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "short": args.short,
        "fingerprint": fingerprint(),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "end_to_end": {n: metric(e2e[n], u) for n, u in END_TO_END.items()},
        "job_s_support": jobs,
        "detail": res["detail"],
    }
    if args.trace:
        report["per_layer"] = ledger.table(res["layers"], res["notes"])
        report["span_trees"] = res.get("span_trees", {})
        report["spans"] = res["spans"]
        path = write_json(f"ledger-{tag}.json", report)
    else:
        path = write_json(f"report-{tag}.json", report)
    for name, rec in metrics.items():
        value = "withheld" if rec["value"] is None else f"{rec['value']:.6g}"
        print(f"{name:36s} {value:>14s} {rec['unit']}")
    print(f"report: {os.path.relpath(path)}")
    print(json.dumps({
        "correct": res["failed"] == 0 and res["attempted"] > 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
