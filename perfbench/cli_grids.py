"""Workload ``cli-grids``: the two CI gate grids as fresh CLI processes.

Each pass runs ``python -m repro scenario run <grid> --jobs 2 --record
--db <fresh db>`` for the plain and the faulted CI grid (9 protocols,
260 packets; the second adds 4 fault kinds), timed from spawn to exit —
the repository's own definition of end to end.  Every pass pays import,
trace synthesis, the process pool and store ingest.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from time import perf_counter
from typing import Any, Dict, List, Sequence, Tuple

import ledger
from harness import (
    DEFAULT_SEED, ROOT, BenchError, Tracer, derive_seed, fresh_dir,
    import_cli_seconds, median, rss_children_mb, run_entries_traced, same_metrics,
    bench_cpus, synthesis_seconds, timed_process,
)

GRIDS = ("ci/regression-scenario.json", "ci/regression-faulted-scenario.json")
BASELINE = "ci/regression-baseline.json"
SHORT_PROTOCOLS = ["DTN-FLOW", "Direct"]
SETUP_SAMPLES = 3
#: the engine's top-level phases: their sum is a point's wall in its worker
TOP_PHASES = ("setup", "event_assembly", "finalize")


def manifests(seed: int, short: bool, outdir: str) -> Tuple[List[str], List[Any]]:
    """Write the two grids (seeds derived, ``full_scale`` pinned off)."""
    from repro.eval.scenario import ScenarioSpec

    paths, specs = [], []
    for grid in GRIDS:
        with open(os.path.join(ROOT, grid), encoding="utf-8") as fh:
            data = json.load(fh)
        data["trace"]["full_scale"] = False
        if seed != DEFAULT_SEED:
            data["trace"]["seed"] = derive_seed(seed, "cli:trace")
            data["seeds"] = [derive_seed(seed, "cli:sim")]
            if "faults" in data:
                data["faults"]["seed"] = derive_seed(seed, "cli:faults")
        if short:
            data["protocols"] = list(SHORT_PROTOCOLS)
        path = os.path.join(outdir, os.path.basename(grid))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
        paths.append(path)
        specs.append(ScenarioSpec.from_dict(data).validate())
    return paths, specs


def help_seconds(samples: int, cpus: Sequence[int]) -> List[float]:
    """``python -m repro --help``: the fixed cost of every invocation."""
    out = []
    for _ in range(samples):
        dt, proc = timed_process(
            [sys.executable, "-m", "repro", "--help"], cpus, capture_output=True
        )
        if proc.returncode != 0:
            raise BenchError(f"repro --help failed: {proc.stderr.decode()[-400:]}")
        out.append(dt)
    return out


def grid_pass(paths: Sequence[str], workdir: str, k: int, tracer: Tracer,
              cpus: Sequence[int]):
    """One pass: both grids into a fresh db, one process each.

    Returns ``(wall, db, [results per grid])``.
    """
    db = os.path.join(workdir, f"pass-{k}.sqlite")
    wall = 0.0
    grids = []
    for i, path in enumerate(paths):
        out = os.path.join(workdir, f"pass-{k}-grid-{i}.json")
        argv = [sys.executable, "-m", "repro", "scenario", "run", path,
                "--jobs", "2", "--record", "--db", db, "--out", out]
        with tracer.span("repro scenario run", op=f"pass-{k}:{os.path.basename(path)}"):
            dt, proc = timed_process(argv, cpus, capture_output=True)
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(argv[1:])} exited {proc.returncode}: "
                             f"{proc.stderr.decode()[-400:]}")
        wall += dt
        with open(out, encoding="utf-8") as fh:
            grids.append(json.load(fh)["results"])
    return wall, db, grids


def point_seconds(metrics: Dict[str, Any]) -> float:
    """A point's wall inside its pool worker, from its own phase timings."""
    timings = metrics.get("phase_timings") or {}
    return sum(
        rec["seconds"] for name, rec in timings.items()
        if name in TOP_PHASES or name.startswith("dispatch.")
    )


def regress_failures(db: str, short: bool) -> Tuple[int, int]:
    """``repro db regress`` at zero tolerance: ``(failed points, checks)``."""
    import repro.cli

    argv = ["db", "regress", "--db", db, "--baseline-file",
            os.path.join(ROOT, BASELINE), "--abs", "0", "--rel", "0", "--json"]
    if not short:
        argv.append("--fail-on-missing")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = repro.cli.main(argv)
    verdict = json.loads(buf.getvalue())
    bad = {c["scenario_hash"] for c in verdict["checks"] if c["status"] != "PASS"}
    if not short:
        bad |= {m["scenario_hash"] for m in verdict["missing"]}
    if code != 0 and not bad:
        raise BenchError(f"db regress exited {code} without a failing point")
    return len(bad), verdict["checked"]


def serial_reference(specs: Sequence[Any], tracer: Tracer, recorder: Any):
    """Every grid point through serial ``execute_config`` under the span
    profiler: ``(results per grid, [(protocol, seconds, 1.0)])``."""
    out, seconds = [], []
    traces: Dict[str, Any] = {}
    for spec in specs:
        profile, tspec, _ = spec.resolve_trace()
        if tspec.key not in traces:
            traces[tspec.key] = tspec.materialize()
        res, secs = run_entries_traced(spec.entries(profile, tspec), traces, tracer, recorder)
        out.append([r.metrics.as_dict() for r in res])
        seconds.extend(secs)
    return out, seconds


def run(seed: int, seconds: float, traced: bool, short: bool) -> Dict[str, Any]:
    from repro.obs.spans import SpanRecorder

    tracer = Tracer(traced)
    # two CPUs, one per pool worker, for every CLI process and its pool.
    # Times stay raw wall: a calibration run between processes tracks the
    # speed of this pool work worse than the median of passes does (README)
    cpus = bench_cpus(2)
    workdir = fresh_dir("cli-grids")
    with tracer.span("cli-grids"):
        with tracer.span("setup"):
            samples = help_seconds(1 if short else SETUP_SAMPLES, cpus)
            paths, specs = manifests(seed, short, workdir)

        walls, dbs, passes, latencies = [], [], [], []
        with tracer.span("measure"):
            t_start = perf_counter()
            while True:
                wall, db, grids = grid_pass(paths, workdir, len(walls), tracer, cpus)
                walls.append(wall)
                dbs.append(db)
                passes.append(grids)
                latencies.extend(point_seconds(m) for results in grids for m in results)
                if perf_counter() - t_start + wall > seconds:
                    break
        peak_rss = rss_children_mb()

        layers: Dict[str, float] = {}
        notes: Dict[str, str] = {}
        reference = None
        extra_attempted = extra_failed = 0
        recorder = SpanRecorder()
        if traced:
            with tracer.span("measure.traced"):
                traced_wall, db, grids = grid_pass(paths, workdir, len(walls), tracer, cpus)
            passes.append(grids)
            dbs.append(db)
            layers["obs.tracing_overhead"] = traced_wall / median(walls)
            with tracer.span("layer.import_cli"):
                layers["import.cli_s"] = import_cli_seconds(1 if short else 3)
            # both grids share one trace recipe: synthesize it once
            tspecs = {t.key: t for t in (s.resolve_trace()[1] for s in specs)}
            with tracer.span("layer.synthesis"):
                layers["mobility.synthesize_s"], layers["mobility.replay_events_s"] = (
                    synthesis_seconds(list(tspecs.values()))
                )
            grid, reference, (extra_attempted, extra_failed) = grid_layers(
                specs, tracer, recorder
            )
            layers.update(grid)
            notes["sim.checkpoint.files"] = notes["sim.checkpoint.bytes"] = (
                "CLI grid runs take no --run-dir: nothing is checkpointed"
            )

        with tracer.span("check"):
            failed, checked = extra_failed, []
            if seed == DEFAULT_SEED:
                for db in dbs:
                    bad, n = regress_failures(db, short)
                    failed += bad
                    checked.append(n)
            if reference is None and seed != DEFAULT_SEED:
                reference, _ = serial_reference(specs, Tracer(False), recorder)
            if reference is not None:
                # pooled CLI results must equal serial execute_config
                for results in passes:
                    for grid, ref in zip(results, reference):
                        failed += sum(
                            not same_metrics(a, b) for a, b in zip(grid, ref)
                        )
    attempted = extra_attempted + sum(len(g) for results in passes for g in results)
    out: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "setup_s": median(samples),
            "run_s": median(walls),
            "peak_rss_mb": peak_rss,
        },
        "latencies": latencies,
        "detail": {
            "setup_wall_s": samples,
            "pass_wall_s": walls,
            "regress_checks_per_pass": checked,
        },
    }
    if traced:
        layers["obs.span_coverage"] = tracer.coverage(0)
        out["layers"] = ledger.complete(layers, notes, "cli-grids bypasses this layer")
        out["notes"] = notes
        out["spans"] = tracer.spans
        out["span_trees"] = {"engine": recorder.tree()}
    return out


def grid_layers(
    specs: Sequence[Any], tracer: Tracer, recorder: Any
) -> Tuple[Dict[str, float], List[List[Dict[str, Any]]], Tuple[int, int]]:
    """The grids decomposed in process: executor, engine and store.

    The same entries run through ``run_point_specs`` with ``jobs=2``
    (pool) and ``jobs=1`` (serial), then through ``execute_config`` under
    the span profiler, then into a fresh ``ExperimentDB`` twice (new,
    then duplicates).  Returns the layer values, the profiled serial
    results per grid, and ``(checked, mismatched)``: pooled and serial
    results must equal the profiled ones.
    """
    from repro.eval.runner import run_point_specs
    from repro.eval.scenario import ScenarioResult
    from repro.store.db import ExperimentDB
    from repro.store.ingest import ingest_scenario_result

    layers: Dict[str, float] = {}
    entries = [e for s in specs for e in s.entries()]
    by_jobs = {}
    for jobs, key in ((2, "eval.runner.pool_wall_s"), (1, "eval.runner.serial_wall_s")):
        with tracer.span(f"run_point_specs(jobs={jobs})"):
            t0 = perf_counter()
            by_jobs[jobs] = run_point_specs(entries, jobs=jobs)
            layers[key] = perf_counter() - t0
    with tracer.span("layer.engine"):
        reference, seconds = serial_reference(specs, tracer, recorder)
    flat_ref = [m for grid in reference for m in grid]
    mismatched = sum(
        not same_metrics(r.metrics.as_dict(), ref)
        for jobs in (2, 1) for r, ref in zip(by_jobs[jobs], flat_ref)
    )
    layers.update(ledger.engine_layers(recorder.tree()))
    host = sum(s for _, s, _ in seconds)
    layers["sim.host_us_per_event"] = host / max(1.0, layers["sim.events"]) * 1e6
    layers.update(ledger.proto_seconds(seconds))
    scenario_results, i = [], 0
    for spec in specs:
        n = spec.n_points()
        scenario_results.append(ScenarioResult(
            spec=spec, points=[p for _, p, _ in entries[i:i + n]],
            results=by_jobs[1][i:i + n],
        ))
        i += n
    db_path = os.path.join(fresh_dir("grid-ingest"), "ingest.sqlite")
    with ExperimentDB(db_path) as db:
        new = dup = 0
        with tracer.span("store.ingest"):
            t0 = perf_counter()
            for sr in scenario_results:
                new += ingest_scenario_result(db, sr).points_new
            layers["store.ingest_s"] = perf_counter() - t0
        with tracer.span("store.ingest.dup"):
            for sr in scenario_results:
                dup += ingest_scenario_result(db, sr).points_dup
    layers["store.points_new"] = float(new)
    layers["store.points_dup"] = float(dup)
    return layers, reference, (2 * len(entries), mismatched)
