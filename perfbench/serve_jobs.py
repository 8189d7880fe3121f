"""Workload ``serve-jobs``: single-point jobs through ``repro serve``.

One ``repro serve --jobs 1 --record`` process (run root and db fresh);
one client in a closed loop, one connection at a time, submits 108 jobs
on the CI DART trace — the 9 protocols cycled over 12 derived sim seeds,
so no two jobs share work — and reads each job's SSE stream until
``job.finished``.  Every latency is timed from a received event, never
from a poll.  This is the only path through serve HTTP/SSE, the durable
job queue, ``run_resumable`` -> ``Simulation.run_checkpointed`` and
per-job ingest.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import ledger
from harness import (
    ALL_PROTOCOLS, DEFAULT_SEED, ROOT, BenchError, Tracer, bench_cpus, child_env, derive_seed,
    fresh_dir, import_cli_seconds, load_reference, median, percentile, run_entry,
    SpeedClock, pin, same_metrics, synthesis_seconds, vm_hwm_mb,
)

N_SEEDS = 12
SETUP_SAMPLES = 3
#: the CI grids' sim block: 260 packets on the small DART trace
SIM = {"memory_kb": 2000, "rate": 100, "workload_scale": 0.004}
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")
_RECORDED = re.compile(r"(\d+) new, (\d+) already recorded")


def trace_seed(seed: int) -> int:
    return 1 if seed == DEFAULT_SEED else derive_seed(seed, "serve:trace")


def sim_seeds(seed: int) -> List[int]:
    if seed == DEFAULT_SEED:
        return list(range(1, N_SEEDS + 1))
    return [derive_seed(seed, f"serve:sim:{k}") for k in range(N_SEEDS)]


def manifest(seed: int, protocol: str, sim_seed: int) -> Dict[str, Any]:
    return {
        "name": f"perfbench-{protocol}-{sim_seed}",
        "trace": {"profile": "DART", "seed": trace_seed(seed), "full_scale": False},
        "sim": dict(SIM),
        "protocols": [protocol],
        "seeds": [sim_seed],
    }


def job_plan(seed: int, short: bool) -> List[Tuple[str, int]]:
    """``(protocol, sim seed)`` per job: protocols cycle fastest."""
    seeds = sim_seeds(seed)[:1] if short else sim_seeds(seed)
    protocols = ALL_PROTOCOLS[:3] if short else ALL_PROTOCOLS
    return [(p, s) for s in seeds for p in protocols]


class Server:
    """A ``repro serve`` child: ready once it prints its listening line."""

    def __init__(self, workdir: str, cpus: Sequence[int]) -> None:
        from repro.serve.client import ServeClient

        self.workdir = workdir
        self.run_root = os.path.join(workdir, "runs")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--jobs", "1", "--record",
             "--run-root", self.run_root, "--db", os.path.join(workdir, "serve.sqlite")],
            stderr=subprocess.PIPE, stdout=subprocess.DEVNULL, text=True,
            env=child_env(), cwd=ROOT, preexec_fn=pin(cpus),
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.log: List[str] = []
        self._drain = threading.Thread(target=self._read, daemon=True)
        self._drain.start()
        while True:
            try:
                line = self._lines.get(timeout=60.0)
            except queue.Empty:
                self.close()
                raise BenchError("repro serve printed no listening line in 60 s")
            if line is None:
                self.close()
                raise BenchError("repro serve exited: " + "".join(self.log[-5:]))
            match = _LISTENING.search(line)
            if match:
                break
        self.client = ServeClient(f"http://{match.group(1)}:{match.group(2)}")

    def _read(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=10)


def run_job(client: Any, spec: Dict[str, Any], tracer: Tracer, op: str) -> Dict[str, Any]:
    """Submit one job and read its SSE stream to the terminal event."""
    rec: Dict[str, Any] = {"events": 0, "state": None, "metrics": None}
    with tracer.span("serve.job", op=op):
        t_submit = perf_counter()
        job = client.submit(spec)
        t_ack = perf_counter()
        t_started = t_point = None
        for event, data in client.events(job["id"]):
            now = perf_counter()
            rec["events"] += 1
            if event == "point.started":
                t_started = now
            elif event == "point.finished":
                t_point = now
                rec["metrics"] = data["metrics"]
                rec["seconds"] = data["seconds"]
            elif event in ("job.finished", "job.failed", "job.cancelled"):
                rec["state"] = event
                rec["recorded"] = data.get("recorded")
                t_done = now
        if rec["state"] != "job.finished" or t_started is None or t_point is None:
            rec["state"] = rec["state"] or "stream ended early"
            return rec
        tracer.record("POST /v1/jobs", t_submit, t_ack, op)
        tracer.record("queued", t_ack, t_started, op)
        tracer.record("point", t_started, t_point, op)
        tracer.record("record+finish", t_point, t_done, op)
    rec.update(
        job_s=t_done - t_submit,
        submit_s=t_ack - t_submit,
        first_event_s=t_started - t_submit,
        finish_s=t_done - t_point,
    )
    return rec


def start_ready(seed: int, workdir: str, tracer: Tracer,
                cpus: Sequence[int]) -> Tuple[float, Server]:
    """Spawn -> listening line -> ``/healthz`` -> one finished warm-up job."""
    t0 = perf_counter()
    with tracer.span("serve.spawn"):
        server = Server(workdir, cpus)
    try:
        with tracer.span("GET /healthz"):
            if not server.client.health().get("ok"):
                raise BenchError("serve /healthz is not ok")
        warm = manifest(seed, "Direct", derive_seed(seed, "serve:warmup"))
        if run_job(server.client, warm, tracer, "warmup")["state"] != "job.finished":
            raise BenchError("serve warm-up job did not finish")
    except BaseException:
        server.close()
        raise
    return perf_counter() - t0, server


def job_cycle(server: Server, plan: Sequence[Tuple[str, int]], seed: int,
              tracer: Tracer, clock: SpeedClock) -> List[Dict[str, Any]]:
    """All planned jobs, one at a time; each finished job's latency is
    also given in reference seconds (``job_ref_s``)."""
    records = []
    clock.start()
    for protocol, sim_seed in plan:
        rec = run_job(server.client, manifest(seed, protocol, sim_seed), tracer,
                      f"{protocol}:{sim_seed}")
        rec["protocol"], rec["sim_seed"] = protocol, sim_seed
        if "job_s" in rec:
            rec["job_ref_s"] = clock.reference(rec["job_s"])
        else:
            clock.start()
        records.append(rec)
    return records


def reference_seconds(records: Sequence[Dict[str, Any]]) -> List[float]:
    return [r["job_ref_s"] for r in records if "job_ref_s" in r]


def checkpoint_files(run_root: str) -> Tuple[int, int]:
    """Checkpoint files and bytes the served jobs left in the run root."""
    files = size = 0
    for dirpath, _, names in os.walk(run_root):
        if os.sep + "points" in dirpath:
            for name in names:
                files += 1
                size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


def check(seed: int, cycles: Sequence[Sequence[Dict[str, Any]]]) -> int:
    """Failed jobs: not finished, or metrics off the serial reference.

    Default seed: every job against the pinned reference.  Other seeds:
    one job per sim seed (protocols cycled) re-run through serial
    ``execute_config`` must match bit for bit.
    """
    from repro.eval.scenario import ScenarioSpec

    failed = 0
    if seed == DEFAULT_SEED:
        ref = load_reference("serve-jobs")
        expected = {
            (r["protocol"], r["sim_seed"]): ref.get(f"{r['protocol']}:{r['sim_seed']}")
            for records in cycles for r in records
        }
    else:
        plan = job_plan(seed, False)
        sample = {(ALL_PROTOCOLS[k % len(ALL_PROTOCOLS)], s)
                  for k, s in enumerate(sim_seeds(seed))}
        sample &= {(r["protocol"], r["sim_seed"]) for c in cycles for r in c}
        expected, trace = {}, None
        for protocol, sim_seed in sorted(sample, key=plan.index):
            entry = ScenarioSpec.from_dict(manifest(seed, protocol, sim_seed)).entries()[0]
            trace = trace or entry[0].materialize()
            expected[(protocol, sim_seed)] = run_entry(entry, trace).metrics.as_dict()
    for records in cycles:
        for r in records:
            ok = r["state"] == "job.finished" and r["metrics"] is not None
            want = expected.get((r["protocol"], r["sim_seed"]))
            if ok and want is not None:
                ok = same_metrics(r["metrics"], want)
            elif ok and seed == DEFAULT_SEED:
                ok = False  # no pinned reference for this job
            failed += not ok
    return failed


def _p50(values: Sequence[float]) -> Optional[float]:
    return percentile(values, 50)[0]


def run(seed: int, seconds: float, traced: bool, short: bool) -> Dict[str, Any]:
    tracer = Tracer(traced)
    # the server runs on one CPU; the calibrations run there too
    clock = SpeedClock(bench_cpus(1))
    plan = job_plan(seed, short)
    with tracer.span("serve-jobs"):
        samples = []
        server: Optional[Server] = None
        with tracer.span("setup"):
            for i in range(1 if short else SETUP_SAMPLES):
                if server is not None:
                    server.close()
                clock.start()
                dt, server = start_ready(
                    seed, fresh_dir("serve-jobs", f"setup-{i}"), tracer, clock.cpus
                )
                samples.append((dt, clock.reference(dt)))
        try:
            with tracer.span("measure"):
                t0 = perf_counter()
                records = job_cycle(server, plan, seed, tracer, clock)
                wall = perf_counter() - t0
            peak_rss = server.peak_rss_mb()
            files, size = checkpoint_files(server.run_root)
        finally:
            server.close()
        cycles = [records]
        latencies = reference_seconds(records)

        layers: Dict[str, float] = {}
        notes: Dict[str, str] = {}
        if traced:
            # the traced cycle gets a server of its own, so its store sees
            # new points exactly as the untraced cycle's did
            _, server = start_ready(seed, fresh_dir("serve-jobs", "traced"), tracer, clock.cpus)
            try:
                with tracer.span("measure.traced"):
                    traced_records = job_cycle(server, plan, seed, tracer, clock)
            finally:
                server.close()
            cycles.append(traced_records)
            layers.update(_layers(seed, traced_records, tracer, short))
            layers["obs.tracing_overhead"] = (
                sum(reference_seconds(traced_records)) / sum(latencies)
            )
            layers["sim.checkpoint.files"] = float(files)
            layers["sim.checkpoint.bytes"] = float(size)
            grid_checked, grid_failed = _grid_layers(seed, short, tracer, layers, notes)

        with tracer.span("check"):
            failed = check(seed, cycles)

    if traced:
        failed += grid_failed
    out: Dict[str, Any] = {
        "attempted": sum(len(c) for c in cycles) + (grid_checked if traced else 0),
        "failed": failed,
        "end_to_end": {
            "setup_s": median([ref for _, ref in samples]),
            "run_s": sum(latencies),
            "peak_rss_mb": peak_rss,
        },
        "latencies": latencies,
        "detail": {
            "setup_wall_s": [w for w, _ in samples],
            "cycle_wall_s": wall,
            "calibration_s": clock.log,
            "jobs": len(plan),
            "checkpoint_files": files,
            "checkpoint_bytes": size,
        },
    }
    if traced:
        layers["obs.span_coverage"] = tracer.coverage(0)
        out["layers"] = ledger.complete(layers, notes, "serve-jobs bypasses this layer")
        out["notes"] = notes
        out["spans"] = tracer.spans
    return out


#: rows the served jobs cannot give, read from the CI grids in process
GRID_ROWS = (
    *(f"sim.dispatch.{kind}_s" for kind in ledger.DISPATCH_KINDS),
    "sim.events", "sim.host_us_per_event",
    "eval.runner.pool_wall_s", "eval.runner.serial_wall_s",
)


def _grid_layers(seed: int, short: bool, tracer: Tracer, layers: Dict[str, float],
                 notes: Dict[str, str]) -> Tuple[int, int]:
    """Fill :data:`GRID_ROWS` from the two CI gate grids on this workload's
    DART trace.  ``Simulation.run_checkpointed`` records no dispatch spans
    and serve never uses the runner, so these rows come from the in-process
    decomposition ``cli-grids`` makes (plain engine loop, pool and serial
    executors, the faulted grid's fault edges).  Returns
    ``(checked, mismatched)`` for the executor-parity check."""
    import cli_grids
    from repro.obs.spans import SpanRecorder

    with tracer.span("layer.ci_grids"):
        _, specs = cli_grids.manifests(seed, short, fresh_dir("serve-jobs", "ci-grids"))
        grid, _, checked = cli_grids.grid_layers(specs, tracer, SpanRecorder())
    for name in GRID_ROWS:
        layers[name] = grid[name]
        notes[name] = "not from the served jobs: CI grids run in process, see README"
    return checked


def _layers(seed: int, traced_records: Sequence[Dict[str, Any]], tracer: Tracer,
            short: bool) -> Dict[str, float]:
    from repro.eval.scenario import ScenarioSpec

    done = [r for r in traced_records if "job_s" in r]
    layers: Dict[str, float] = {}
    with tracer.span("layer.import_cli"):
        layers["import.cli_s"] = import_cli_seconds(1 if short else 3)
    with tracer.span("layer.synthesis"):
        tspec = ScenarioSpec.from_dict(manifest(seed, "Direct", 1)).resolve_trace()[1]
        layers["mobility.synthesize_s"], layers["mobility.replay_events_s"] = (
            synthesis_seconds([tspec])
        )
    layers.update(ledger.flat_layers(r["metrics"].get("phase_timings") for r in done))
    layers.update(ledger.proto_seconds((r["protocol"], r["seconds"]) for r in done))
    new = dup = 0
    for r in done:
        match = _RECORDED.search(r.get("recorded") or "")
        if match:
            new += int(match.group(1))
            dup += int(match.group(2))
    # the server ingests between point.finished and job.finished
    layers["store.ingest_s"] = sum(r["finish_s"] for r in done)
    layers["store.points_new"] = float(new)
    layers["store.points_dup"] = float(dup)
    for name, key in (("serve.submit_s.p50", "submit_s"),
                      ("serve.first_event_s.p50", "first_event_s")):
        layers[name] = _p50([r[key] for r in done]) or 0.0
    layers["serve.overhead_s.p50"] = _p50([r["job_s"] - r["seconds"] for r in done]) or 0.0
    layers["serve.sse_events"] = float(sum(r["events"] for r in traced_records))
    return layers
