"""Workload ``paper-sweep``: the paper's §V memory sweeps, serially, in process.

Presets ``fig11-dart-memory`` and ``fig12-dnet-memory`` (6 protocols x 5
memory sizes each, 60 points) run through ``run_scenario(..., jobs=1)``
in this one long-lived process, both traces materialized during set-up.
Almost all of the time is engine dispatch and protocol hooks; import,
synthesis, the pool, checkpoints, the store and serve are bypassed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Sequence, Tuple

import ledger
from harness import (
    DEFAULT_SEED, BenchError, Tracer, derive_seed, import_cli_seconds,
    load_reference, median, rss_self_mb, run_entries_traced, run_entry,
    SpeedClock, bench_cpus, same_metrics, synthesis_seconds,
)

PRESETS = ("fig11-dart-memory", "fig12-dnet-memory")
#: the presets' small-scale memory grid, pinned so that REPRO_FULL_SCALE
#: in the environment cannot swap in the 10-value full-scale grid
MEMORY_GRID = [1200.0, 1600.0, 2000.0, 2400.0, 3000.0]
SETUP_SAMPLES = 3


def specs(seed: int, short: bool) -> List[Any]:
    """The two sweeps; the default seed keeps the presets' own seeds."""
    from repro.eval.scenario import ScenarioSpec, preset_scenario

    out = []
    for name in PRESETS:
        data = preset_scenario(name).as_dict()
        data["trace"]["full_scale"] = False
        data["sweep"]["values"] = MEMORY_GRID[:2] if short else list(MEMORY_GRID)
        if seed != DEFAULT_SEED:
            data["trace"]["seed"] = derive_seed(seed, f"{name}:trace")
            data["seeds"] = [derive_seed(seed, f"{name}:sim")]
        if short:
            data["protocols"] = data["protocols"][:1]
        out.append(ScenarioSpec.from_dict(data).validate())
    return out


def point_key(spec: Any, point: Any) -> str:
    return f"{spec.trace.profile}:{point.protocol}:{point.memory_kb:g}"


def setup(seed: int, short: bool) -> Tuple[float, List[Any], List[Any], List[Any]]:
    """Import, validation and both traces: ``(seconds, specs, entries, traces)``."""
    t0 = perf_counter()
    import repro.cli  # noqa: F401  (the import every user of the CLI pays)

    sweeps = specs(seed, short)
    entries, traces = [], []
    for spec in sweeps:
        profile, tspec, _ = spec.resolve_trace()
        entries.append(spec.entries(profile, tspec))
        traces.append(tspec.materialize())
    return perf_counter() - t0, sweeps, entries, traces


def setup_probe(seed: int, short: bool) -> float:
    return setup(seed, short)[0]


def probe_setup_in_child(seed: int, short: bool) -> float:
    """One set-up sample in a fresh interpreter (cold imports)."""
    argv = [sys.executable, sys.argv[0], "--workload", "paper-sweep",
            "--seed", str(seed), "--setup-probe"] + (["--short"] if short else [])
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"setup probe failed: {proc.stderr[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def sweep_pass(sweeps: Sequence[Any], traces: Sequence[Any], tracer: Tracer,
               clock: SpeedClock):
    """Both sweeps through ``run_scenario(jobs=1)``.

    Each point is timed from the executor's own start/finish callbacks:
    ``(results, [(wall, reference seconds)] per point)``.
    """
    from repro.eval.scenario import run_scenario

    results, latencies = [], []
    clock.start()
    for spec, trace in zip(sweeps, traces):
        starts: Dict[int, float] = {}

        def progress(ev: Any) -> None:
            if ev.kind == "started":
                starts[ev.index] = perf_counter()
            else:
                wall = perf_counter() - starts[ev.index]
                latencies.append((wall, clock.reference(wall)))

        with tracer.span("run_scenario", op=spec.name):
            results.append(
                run_scenario(spec, jobs=1, trace=trace, progress=progress).results
            )
    return results, latencies


def check(
    seed: int, sweeps: Sequence[Any], entries: Sequence[Any], traces: Sequence[Any],
    passes: Sequence[Sequence[Sequence[Any]]],
) -> int:
    """Failed points over all passes (compared outside any timed window).

    Default seed: every point against the pinned reference.  Other seeds:
    one point per protocol re-run through plain ``execute_config`` must
    match bit for bit, and every point must keep its packet accounting.
    """
    failed = 0
    if seed == DEFAULT_SEED:
        ref = load_reference("paper-sweep")
        for results in passes:
            for spec, ents, res in zip(sweeps, entries, results):
                for (_, point, _), r in zip(ents, res):
                    expected = ref.get(point_key(spec, point))
                    failed += expected is None or not same_metrics(
                        r.metrics.as_dict(), expected
                    )
        return failed
    sample = {}
    n_protocols = len(sweeps[0].protocols)
    for i in range(n_protocols):
        s = i % len(sweeps)
        j = i * len(sweeps[s].sweep.values) + i % len(sweeps[s].sweep.values)
        sample[(s, j)] = run_entry(entries[s][j], traces[s]).metrics.as_dict()
    for results in passes:
        for s, res in enumerate(results):
            for j, r in enumerate(res):
                m = r.metrics
                ok = m.generated > 0 and 0 <= m.delivered <= m.generated
                if (s, j) in sample:
                    ok = ok and same_metrics(m.as_dict(), sample[(s, j)])
                failed += not ok
    return failed


def run(seed: int, seconds: float, traced: bool, short: bool) -> Dict[str, Any]:
    tracer = Tracer(traced)
    # one CPU for this process and the set-up probes it spawns
    cpus = bench_cpus(1)
    os.sched_setaffinity(0, cpus)
    clock = SpeedClock(cpus)
    with tracer.span("paper-sweep"):
        with tracer.span("setup"):
            clock.start()
            setup_s, sweeps, entries, traces = setup(seed, short)
        raw_setup = [setup_s]
        samples = [clock.reference(setup_s)]
        with tracer.span("setup.probes"):
            for _ in range(0 if short else SETUP_SAMPLES - 1):
                raw_setup.append(probe_setup_in_child(seed, short))
                samples.append(clock.reference(raw_setup[-1]))

        passes, latencies, runs, walls = [], [], [], []
        with tracer.span("measure"):
            t_start = perf_counter()
            while True:
                t0 = perf_counter()
                results, lat = sweep_pass(sweeps, traces, tracer, clock)
                walls.append(perf_counter() - t0)
                runs.append(sum(ref for _, ref in lat))
                passes.append(results)
                latencies.extend(ref for _, ref in lat)
                if perf_counter() - t_start + walls[-1] > seconds:
                    break
        peak_rss = rss_self_mb()

        layers: Dict[str, float] = {}
        notes: Dict[str, str] = {}
        if traced:
            from repro.obs.spans import SpanRecorder

            recorder = SpanRecorder()
            point_seconds: List[Tuple[str, float, float]] = []
            traced_results = []
            with tracer.span("measure.traced"):
                for ents, trace in zip(entries, traces):
                    keyed = {ents[0][0].key: trace}
                    res, secs = run_entries_traced(ents, keyed, tracer, recorder, clock)
                    traced_results.append(res)
                    point_seconds.extend(secs)
            passes.append(traced_results)
            tree = recorder.tree()
            layers.update(ledger.engine_layers(tree))
            host = sum(s for _, s, _ in point_seconds)
            layers["sim.host_us_per_event"] = host / max(1.0, layers["sim.events"]) * 1e6
            layers.update(ledger.proto_seconds(point_seconds))
            layers["eval.runner.serial_wall_s"] = median(walls)
            notes["eval.runner.pool_wall_s"] = "paper-sweep runs serially: no pool"
            with tracer.span("layer.import_cli"):
                layers["import.cli_s"] = import_cli_seconds(1 if short else 3)
            with tracer.span("layer.synthesis"):
                tspecs = [s.resolve_trace()[1] for s in sweeps]
                synth, replay = synthesis_seconds(tspecs)
            layers["mobility.synthesize_s"] = synth
            layers["mobility.replay_events_s"] = replay
            layers["obs.tracing_overhead"] = (
                sum(ref for _, _, ref in point_seconds) / runs[0]
            )

        with tracer.span("check"):
            failed = check(seed, sweeps, entries, traces, passes)

    attempted = sum(len(r) for results in passes for r in results)
    out: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "setup_s": median(samples),
            "run_s": median(runs),
            "peak_rss_mb": peak_rss,
        },
        "latencies": latencies,
        "detail": {
            "setup_wall_s": raw_setup,
            "pass_wall_s": walls,
            "pass_reference_s": runs,
            "calibration_s": clock.log,
            "points_per_pass": attempted // len(passes),
        },
    }
    if traced:
        layers["obs.span_coverage"] = tracer.coverage(0)
        out["layers"] = ledger.complete(
            layers, notes, "paper-sweep bypasses this layer"
        )
        out["notes"] = notes
        out["spans"] = tracer.spans
        out["span_trees"] = {"engine": tree}
    return out
