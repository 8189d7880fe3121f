"""Shared plumbing for the benchmark: paths, spans, statistics, output.

Nothing here imports ``repro``: :func:`bootstrap` puts the checkout's
``src`` on ``sys.path`` first, so the package under test is always the
one next to this directory, never an installed copy.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: reports, ledgers and span dumps (ignored by git)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
#: per-run scratch: manifests, databases, run roots (ignored by git)
TMP_DIR = os.path.join(ROOT, ".perfbench-tmp")
REFERENCE_DIR = os.path.join(HERE, "reference")

#: the seed whose results are pinned in ``reference/`` (and, for
#: ``cli-grids``, in the repository's committed regression baseline)
DEFAULT_SEED = 1

#: all nine registry protocols, in the CI grids' order
ALL_PROTOCOLS = (
    "DTN-FLOW", "SimBet", "PROPHET", "PGR", "GeoComm", "PER",
    "Direct", "Epidemic", "SprayWait",
)

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10

#: iterations of the calibration kernel (about 20 ms on a 2.1 GHz vCPU)
CAL_LOOPS = 100_000
#: the kernel's seconds on the reference machine: the unit every timed
#: end-to-end metric is scaled to (see README.md, "Reference seconds")
CAL_REF_S = 0.020


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a dead server...)."""


def bootstrap() -> None:
    """Make ``import repro`` resolve to this checkout's ``src``, and keep
    temporary files (pool sockets, sqlite spill) inside the checkout."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no repro package under {SRC}: nothing to benchmark")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    tmp = os.path.join(TMP_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None


def child_env() -> Dict[str, str]:
    """Environment for ``python -m repro`` children: this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def fresh_dir(*parts: str) -> str:
    """An empty scratch directory under :data:`TMP_DIR`."""
    path = os.path.join(TMP_DIR, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# -- seeds ---------------------------------------------------------------------


def derive_seed(seed: int, stream: str) -> int:
    """A per-purpose seed from the benchmark seed (stable across runs).

    The default seed maps onto the paper presets' and CI grids' own seeds
    (see each workload), so its results can be checked against pinned
    references; every other seed goes through this hash.
    """
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return 1 + int.from_bytes(digest[:4], "big") % 1_000_000


# -- spans ---------------------------------------------------------------------


class Tracer:
    """The benchmark's own spans: name, start, end, parent and operation id.

    Disabled, :meth:`span` is a bare ``yield`` — untraced runs pay one
    generator step per call into the program, nothing per event.  Spans
    stay in memory in :attr:`spans` until the ledger is written.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.t0 = perf_counter()
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": op,
            "start": perf_counter() - self.t0,
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = perf_counter() - self.t0
            self._stack.pop()

    def record(
        self, name: str, start: float, end: float, op: Optional[str] = None
    ) -> None:
        """A span timed elsewhere (``perf_counter`` instants), e.g. from
        received events, as a child of the current span."""
        if not self.enabled:
            return
        self.spans.append({
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": op,
            "start": start - self.t0,
            "end": end - self.t0,
        })

    def coverage(self, span_id: int) -> float:
        """Share of a span's wall time covered by its direct children."""
        root = self.spans[span_id]
        intervals = sorted(
            (s["start"], s["end"]) for s in self.spans if s["parent"] == span_id
        )
        covered, cursor = 0.0, root["start"]
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        total = root["end"] - root["start"]
        return covered / total if total > 0 else 0.0


# -- machine speed -------------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed pure-Python kernel: dict and integer work, the
    interpreter paths the simulator spends its time on."""
    t0 = perf_counter()
    acc, table = 0, {}
    for i in range(CAL_LOOPS):
        k = i & 255
        table[k] = table.get(k, 0) + i
        acc += i * i
    return perf_counter() - t0


def bench_cpus(n: int) -> List[int]:
    """The CPUs a workload's processes are pinned to: the last ``n`` that
    this process may use.  Each vCPU's speed drifts on its own, so the
    calibration must run on the CPUs that do the work."""
    return sorted(os.sched_getaffinity(0))[-n:]


def pin(cpus: Sequence[int]) -> Callable[[], None]:
    """A ``preexec_fn`` that pins a child process to ``cpus``."""
    return lambda: os.sched_setaffinity(0, cpus)


class SpeedClock:
    """Scales wall seconds to reference seconds on a machine whose speed drifts.

    Timed operations run back to back with a calibration at every boundary
    between them: :meth:`start` before the first, :meth:`reference` after
    each.  A calibration runs the kernel once on each of ``cpus`` (the
    CPUs the work is pinned to) and averages; an operation's scale is
    ``CAL_REF_S`` over the mean of the calibrations on either side of it.
    """

    def __init__(self, cpus: Sequence[int]) -> None:
        self.cpus = list(cpus)
        self.log: List[float] = []

    def _calibrate(self) -> float:
        saved = os.sched_getaffinity(0)
        samples = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                samples.append(calibrate())
        finally:
            os.sched_setaffinity(0, saved)
        return sum(samples) / len(samples)

    def start(self) -> None:
        self.log.append(self._calibrate())

    def reference(self, wall: float) -> float:
        """Close the operation that ran since the previous calibration."""
        before = self.log[-1]
        self.log.append(self._calibrate())
        return wall * 2.0 * CAL_REF_S / (before + self.log[-1])


# -- statistics ----------------------------------------------------------------


def percentile(
    values: Sequence[float], q: float, *, min_beyond: int = MIN_BEYOND
) -> Tuple[Optional[float], int]:
    """Nearest-rank ``q``-th percentile and the number of samples beyond it.

    The value is ``None`` (withheld) when fewer than ``min_beyond``
    samples lie beyond the percentile: a tail read off a handful of
    samples is noise, not a measurement.
    """
    if not values:
        return None, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        return None, beyond
    return ordered[rank - 1], beyond


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def rss_self_mb() -> float:
    """Peak RSS of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_children_mb() -> float:
    """Peak RSS of the largest waited-for descendant."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """A live process's peak RSS from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# -- correctness ---------------------------------------------------------------


def sim_metrics(metrics: Mapping[str, Any]) -> Dict[str, Any]:
    """The simulated part of a metrics dict: no wall clock, no provenance."""
    return {
        k: v for k, v in metrics.items() if k not in ("phase_timings", "provenance")
    }


def same_metrics(a: Mapping[str, Any], b: Mapping[str, Any]) -> bool:
    """Zero-tolerance equality of two metrics dicts (NaN equals NaN)."""
    return json.dumps(sim_metrics(a), sort_keys=True) == json.dumps(
        sim_metrics(b), sort_keys=True
    )


def load_reference(workload: str) -> Dict[str, Any]:
    """The pinned default-seed results of one workload, keyed by point."""
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)["points"]


# -- provenance ----------------------------------------------------------------


def fingerprint() -> Dict[str, Any]:
    """Machine and software identity stamped on every report."""
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            # never walk up into an unrelated enclosing repository
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
    }


def metric(value: Optional[float], unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def write_json(name: str, payload: Any) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def timed_process(
    argv: Sequence[str], cpus: Optional[Sequence[int]] = None, **kwargs: Any
) -> Tuple[float, subprocess.CompletedProcess]:
    """Run a child (pinned to ``cpus``) to completion; wall seconds from
    spawn to exit."""
    t0 = perf_counter()
    proc = subprocess.run(
        argv, env=child_env(), cwd=ROOT,
        preexec_fn=pin(cpus) if cpus else None, **kwargs
    )
    return perf_counter() - t0, proc


def import_cli_seconds(samples: int) -> float:
    """Median wall of a fresh interpreter doing ``import repro.cli``."""
    times = []
    for _ in range(samples):
        dt, proc = timed_process(
            [sys.executable, "-c", "import repro.cli"], capture_output=True
        )
        if proc.returncode != 0:
            raise BenchError(f"import repro.cli failed: {proc.stderr.decode()[-400:]}")
        times.append(dt)
    return median(times)


def run_entries_traced(
    entries: Sequence[Any], traces: Mapping[str, Any], tracer: Tracer, recorder: Any,
    clock: Optional[SpeedClock] = None,
) -> Tuple[List[Any], List[Tuple[str, float, float]]]:
    """Run scenario entries serially under the program's span profiler.

    The same shape ``repro profile`` uses: one shared ``SpanRecorder``,
    a per-point span, a fresh ``Observability`` anchored inside it.  Each
    point is also a benchmark span (op = point label).  Returns the
    results and ``(protocol, wall seconds, reference seconds)`` per point;
    without a ``clock`` the reference seconds are the wall seconds.
    """
    from repro.eval.experiment import execute_config
    from repro.eval.profiling import point_label
    from repro.obs import Observability, ObsConfig, PhaseProfiler

    results, seconds = [], []
    if clock is not None:
        clock.start()
    for tspec, point, config in entries:
        label = point_label(point)
        t0 = perf_counter()
        with tracer.span("execute_config", op=label), recorder.span(label):
            obs = Observability(
                ObsConfig(profile=True),
                profiler=PhaseProfiler(enabled=True, recorder=recorder),
            )
            results.append(execute_config(
                traces[tspec.key], point.protocol, config,
                memory_kb=point.memory_kb, rate=point.rate, seed=point.seed,
                protocol_kwargs=point.protocol_kwargs, scenario=point.scenario,
                obs=obs,
            ))
        wall = perf_counter() - t0
        seconds.append((point.protocol, wall, clock.reference(wall) if clock else wall))
    return results, seconds


def run_entry(entry: Any, trace: Any) -> Any:
    """One entry through the plain serial path (``execute_config``)."""
    from repro.eval.experiment import execute_config

    _, point, config = entry
    return execute_config(
        trace, point.protocol, config,
        memory_kb=point.memory_kb, rate=point.rate, seed=point.seed,
        protocol_kwargs=point.protocol_kwargs, scenario=point.scenario,
    )


def synthesis_seconds(tspecs: Sequence[Any]) -> Tuple[float, float]:
    """Fresh trace synthesis and first replay-schedule build, in seconds."""
    from repro.sim import engine

    start_kind = getattr(engine, "_VISIT_START", 3)
    end_kind = getattr(engine, "_VISIT_END", 1)
    synth = replay = 0.0
    for tspec in tspecs:
        t0 = perf_counter()
        trace = tspec.materialize()
        t1 = perf_counter()
        trace.replay_events(start_kind, end_kind)
        synth += t1 - t0
        replay += perf_counter() - t1
    return synth, replay
