#!/usr/bin/env python3
"""Regenerate the pinned default-seed results in ``perfbench/reference/``.

Every point runs through plain serial ``execute_config``.  Regenerate
only when a change to the simulated metrics is intended, and say so in
the change.  Usage, from the root of a checkout::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import DEFAULT_SEED, REFERENCE_DIR, bootstrap, run_entry, sim_metrics  # noqa: E402


def paper_sweep() -> dict:
    import paper_sweep as ps

    _, sweeps, entries, traces = ps.setup(DEFAULT_SEED, short=False)
    points = {}
    for spec, ents, trace in zip(sweeps, entries, traces):
        for entry in ents:
            metrics = run_entry(entry, trace).metrics.as_dict()
            points[ps.point_key(spec, entry[1])] = sim_metrics(metrics)
    return points


def serve_jobs() -> dict:
    import serve_jobs as sj
    from repro.eval.scenario import ScenarioSpec

    points, trace = {}, None
    for protocol, sim_seed in sj.job_plan(DEFAULT_SEED, short=False):
        entry = ScenarioSpec.from_dict(
            sj.manifest(DEFAULT_SEED, protocol, sim_seed)
        ).entries()[0]
        trace = trace or entry[0].materialize()
        metrics = run_entry(entry, trace).metrics.as_dict()
        points[f"{protocol}:{sim_seed}"] = sim_metrics(metrics)
    return points


def main() -> int:
    bootstrap()
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name, build in (("paper-sweep", paper_sweep), ("serve-jobs", serve_jobs)):
        path = os.path.join(REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": DEFAULT_SEED, "points": build()},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
