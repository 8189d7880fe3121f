"""The point executor: every sweep point runs through :func:`execute`.

The paper's evaluation (Figs. 11-14, Tables 6-9) is dominated by parameter
sweeps — every ``(trace, protocol, memory, rate, seed)`` point an
independent discrete-event run.  :func:`execute` is the one function that
runs such points, for plain sweeps (:func:`run_point_specs`,
:func:`run_points`), resumable run directories
(:func:`repro.eval.resume.run_resumable`) and ``repro serve`` jobs alike:

* **one trace table** — the parent materializes each distinct trace once;
  pool workers inherit that table through the pool initializer;
* **deterministic ordering** — results come back in submission order no
  matter which worker finishes first;
* **bit-identical modes** — ``jobs=1``, a pool, and the serial fallback
  all run :func:`~repro.eval.experiment.execute_config` on the same
  resolved config, so their :class:`~repro.sim.metrics.MetricsSummary`
  values are identical for the same seeds;
* **durability on request** — with a run directory, committed points are
  skipped and every new result commits as it lands.

Configs are resolved from the :class:`~repro.eval.config.TraceProfile` in
the parent before dispatch (profiles hold non-picklable builder closures;
:class:`~repro.sim.engine.SimConfig` is a plain dataclass).
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import sys
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from time import monotonic, perf_counter
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.eval.config import TraceProfile, trace_profile
from repro.eval.config import full_scale as _resolve_full_scale
from repro.eval.experiment import ExperimentResult, execute_config
from repro.mobility.trace import Trace
from repro.obs import events as event_types
from repro.obs.provenance import _jsonable
from repro.sim.checkpoint import (
    DEFAULT_EVERY_EVENTS,
    ExecutionInterrupted,
    InterruptFlag,
    RunDir,
    SerialCheckpointer,
)
from repro.sim.engine import SimConfig

__all__ = [
    "PointExecutionError",
    "PointSpec",
    "ProgressEvent",
    "ProgressFn",
    "ResultFn",
    "SweepInterrupted",
    "TraceSpec",
    "execute",
    "parse_jobs",
    "point_scenario_dict",
    "run_point_specs",
    "run_points",
]

#: chaos hooks (set by ``repro chaos`` / tests): the index of the sweep point
#: whose *pool* task should die abruptly or raise.  The serial re-run path
#: deliberately has no hook, so an injected pool failure always recovers
#: through the retry -> serial-fallback chain (see docs/reliability.md).
CHAOS_POOL_EXIT = "REPRO_CHAOS_POOL_EXIT"
CHAOS_POOL_RAISE = "REPRO_CHAOS_POOL_RAISE"


def _chaos_index(name: str) -> Optional[int]:
    value = os.environ.get(name)
    if not value:
        return None
    try:
        return int(value)
    except ValueError:
        return None


@dataclass(frozen=True)
class ProgressEvent:
    """One live-telemetry record from a running sweep.

    :func:`execute` emits these in the parent as points start and finish,
    so a long sweep reports per-point completion instead of going dark
    until the pool drains.  ``kind`` is ``"started"`` (a point handed to a
    worker, or begun in the parent) or ``"finished"`` — exactly one per
    point.  ``seconds`` is the point's own wall-clock and ``pid`` the
    process that ran it (finished events; ``seconds`` is ``None`` for a
    point restored from a run directory).  A point re-run after a pool
    failure may emit a second ``started``.
    """

    kind: str
    index: int
    total: int
    protocol: str
    memory_kb: float
    rate: float
    seed: int
    seconds: Optional[float] = None
    pid: Optional[int] = None


#: progress callback; exceptions it raises are swallowed, never failing a sweep
ProgressFn = Callable[[ProgressEvent], None]

def _emit_progress(
    progress: Optional[ProgressFn], event: ProgressEvent
) -> None:
    if progress is None:
        return
    try:
        progress(event)
    except Exception:  # telemetry must never break the sweep itself
        pass


def parse_jobs(value: Union[int, str, None]) -> int:
    """Parse a ``--jobs`` value: a positive int, or ``auto``/``0`` = all cores."""
    if value is None:
        return 1
    if isinstance(value, int):
        n = value
    else:
        text = str(value).strip().lower()
        if text == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            n = int(text)
        except ValueError:
            raise ValueError(
                f"jobs must be a positive integer or 'auto', got {value!r}"
            ) from None
    if n == 0:
        return max(1, os.cpu_count() or 1)
    if n < 0:
        raise ValueError(f"jobs must be a positive integer or 'auto', got {value!r}")
    return n


@dataclass(frozen=True)
class TraceSpec:
    """A picklable recipe for materializing a :class:`Trace` in a worker.

    Workers cache materialized traces by :attr:`key`, so a spec shipped once
    (through the pool initializer) serves every point that references it.
    Three kinds:

    * ``profile`` — rebuild a built-in synthetic trace (``DART``/``DNET``)
      from its deterministic generator; nothing but the name and seed
      crosses the process boundary;
    * ``path`` — load a trace CSV from disk;
    * ``inline`` — carry the trace itself (pickled once per worker; the
      general case for programmatically-built traces).
    """

    kind: str
    key: str
    profile: Optional[str] = None
    seed: int = 0
    path: Optional[str] = None
    trace: Optional[Trace] = None
    #: the scale a profile spec was resolved at in the parent; pinned here so
    #: a worker whose environment differs can never rebuild at the wrong scale
    full: Optional[bool] = None

    @classmethod
    def from_profile(
        cls, name: str, seed: int, *, full_scale: Optional[bool] = None
    ) -> "TraceSpec":
        name = name.upper()
        resolved = _resolve_full_scale() if full_scale is None else bool(full_scale)
        trace_profile(name, full_scale=resolved)  # validate eagerly, in the parent
        key = f"profile:{name}:{seed}:full={int(resolved)}"
        return cls(kind="profile", key=key, profile=name, seed=seed, full=resolved)

    @classmethod
    def from_path(cls, path: str) -> "TraceSpec":
        return cls(kind="path", key=f"path:{path}", path=str(path))

    @classmethod
    def inline(cls, trace: Trace) -> "TraceSpec":
        # id() keys are only meaningful parent-side; workers just treat the
        # key as an opaque cache handle for the pickled trace
        return cls(kind="inline", key=f"inline:{trace.name}:{id(trace)}", trace=trace)

    def materialize(self) -> Trace:
        if self.kind == "profile":
            return trace_profile(self.profile, full_scale=self.full).build(self.seed)
        if self.kind == "path":
            from repro.mobility import io as trace_io

            return trace_io.load_trace(self.path)
        if self.kind == "inline":
            if self.trace is None:
                raise ValueError("inline TraceSpec lost its trace payload")
            return self.trace
        raise ValueError(f"unknown TraceSpec kind {self.kind!r}")


@dataclass(frozen=True)
class PointSpec:
    """One experiment point: protocol + workload knobs (trace given aside).

    ``scenario`` optionally carries the point's fully-resolved scenario dict
    (see :func:`point_scenario_dict`); it is stamped into the run's
    provenance so ``repro rerun`` can reproduce the point bit-for-bit.
    """

    protocol: str
    memory_kb: float = 2000.0
    rate: float = 500.0
    seed: int = 0
    protocol_kwargs: Optional[dict] = None
    scenario: Optional[dict] = None


def point_scenario_dict(
    trace_spec: "TraceSpec", point: "PointSpec", config: SimConfig
) -> Optional[Dict[str, Any]]:
    """The canonical resolved-scenario dict for one experiment point.

    This is the single source of the provenance-embedded scenario shape, so
    a rerun (which resolves the dict back into identical inputs) re-emits an
    identical dict.  ``None`` when the trace has no serializable recipe
    (inline traces cannot be re-materialized from JSON).
    """
    if trace_spec.kind == "profile":
        trace_block: Dict[str, Any] = {
            "profile": trace_spec.profile,
            "seed": int(trace_spec.seed),
            "full_scale": bool(
                trace_spec.full if trace_spec.full is not None else _resolve_full_scale()
            ),
        }
    elif trace_spec.kind == "path":
        trace_block = {"path": str(trace_spec.path)}
    else:
        return None
    # the fault plan is a top-level scenario block, not a sim knob, so the
    # emitted dict round-trips through ScenarioSpec.from_dict unchanged
    sim = {
        f: v
        for f, v in dataclasses.asdict(config).items()
        if f not in ("seed", "faults")
    }
    protocol_config = dict(point.protocol_kwargs or {})
    if "config" in protocol_config and dataclasses.is_dataclass(
        protocol_config["config"]
    ):
        # flatten a prebuilt config dataclass into its JSON field form
        protocol_config = dataclasses.asdict(protocol_config["config"])
    out: Dict[str, Any] = {
        "trace": trace_block,
        "sim": sim,
        "protocol": {"name": point.protocol, "config": protocol_config},
        "seeds": [int(point.seed)],
    }
    if config.faults is not None:
        out["faults"] = config.faults
    return _jsonable(out)


#: one work item: which trace, which point, with which resolved config
Entry = Tuple[TraceSpec, PointSpec, SimConfig]

#: pool-infrastructure failures that trigger the serial fallback (pool
#: construction/submission problems; failures of individual points are
#: handled per-point inside :func:`_run_pool` instead)
_POOL_ERRORS = (OSError, ImportError, NotImplementedError, BrokenProcessPool)


class PointExecutionError(RuntimeError):
    """One sweep point failed its pool run, the retry, *and* the serial
    re-run.

    Carries the point's fully-resolved inputs (:attr:`point`,
    :attr:`config`, :attr:`trace_key`) so the failing experiment can be
    reproduced in isolation, plus the final underlying exception as
    :attr:`cause` (also chained as ``__cause__``).
    """

    def __init__(
        self,
        point: "PointSpec",
        config: SimConfig,
        trace_key: str,
        cause: BaseException,
    ) -> None:
        self.point = point
        self.config = config
        self.trace_key = trace_key
        self.cause = cause
        super().__init__(
            f"sweep point failed after retry and serial re-run: "
            f"protocol={point.protocol!r} seed={point.seed} "
            f"memory_kb={point.memory_kb:g} rate={point.rate:g} "
            f"trace={trace_key!r}: {cause!r}"
        )

    def __reduce__(self):
        # RuntimeError's default reduce would replay the formatted message
        # into the 4-argument __init__; rebuild from the resolved spec so the
        # error survives a trip across the process boundary.
        return (self.__class__, (self.point, self.config, self.trace_key, self.cause))


class SweepInterrupted(RuntimeError):
    """A sweep was interrupted (SIGINT, SIGTERM or a triggered flag) with
    some points already complete.

    :attr:`results` is index-aligned with the submitted entries; ``None``
    marks points that never finished.  Callers can record the completed
    points (the store's content-hash dedup makes re-recording safe) and
    resume the sweep later — resumed runs skip already-recorded points.
    """

    def __init__(self, results: Sequence[Optional[ExperimentResult]]) -> None:
        self.results: List[Optional[ExperimentResult]] = list(results)
        done = sum(1 for r in self.results if r is not None)
        super().__init__(
            f"sweep interrupted with {done}/{len(self.results)} points complete"
        )




#: called as ``(index, result, seconds)`` once a point's result lands;
#: ``seconds`` is ``None`` for a point restored from its ``result.ckpt``
ResultFn = Callable[[int, ExperimentResult, Optional[float]], None]

#: a point the pool handed back to the parent, with its last pool failure
#: (``None``: the point never ran in the pool)
_Leftover = Tuple[int, Optional[BaseException]]

# -- worker-side state ----------------------------------------------------------
_WORKER_TRACES: Dict[str, Trace] = {}


def _pool_init(traces: Dict[str, Trace]) -> None:
    """Pool initializer: adopt the parent's materialized traces.

    Under ``fork`` (the Linux default) the dict is inherited, never
    pickled; other start methods pickle it once per worker.
    """
    global _WORKER_TRACES
    _WORKER_TRACES = traces


def _run_point(
    trace: Trace, point: PointSpec, config: SimConfig, checkpointer: Any = None
) -> ExperimentResult:
    """Run one point; every executor mode enters the engine here."""
    return execute_config(
        trace,
        point.protocol,
        config,
        memory_kb=point.memory_kb,
        rate=point.rate,
        seed=point.seed,
        protocol_kwargs=point.protocol_kwargs,
        scenario=point.scenario,
        checkpointer=checkpointer,
    )


def _pool_task(
    idx: int, trace_key: str, point: PointSpec, config: SimConfig
) -> Tuple[ExperimentResult, float, int]:
    """One point in a pool worker: ``(result, seconds, worker pid)``."""
    if _chaos_index(CHAOS_POOL_EXIT) == idx:
        os._exit(1)  # abrupt worker death: no exception, no cleanup
    if _chaos_index(CHAOS_POOL_RAISE) == idx:
        raise RuntimeError(f"chaos: injected pool failure for point {idx}")
    t0 = perf_counter()
    result = _run_point(_WORKER_TRACES[trace_key], point, config)
    return result, perf_counter() - t0, os.getpid()


def _run_pool(
    entries: Sequence[Entry],
    todo: Sequence[int],
    n_jobs: int,
    traces: Dict[str, Trace],
    timeout: Optional[float],
    flag: Optional[InterruptFlag],
    started: Callable[[int], None],
    commit: Callable[..., None],
) -> List[_Leftover]:
    """Run the ``todo`` points over a process pool; return what is left.

    At most ``n_jobs`` points are in flight, so ``started`` fires when a
    worker actually takes a point.  A point that raises gets one pool
    retry; one that breaks the pool or exceeds ``timeout`` marks the pool
    unhealthy, which stops the hand-off and abandons the pool without
    waiting (a hung worker is orphaned).  A triggered ``flag`` stops the
    hand-off too, but in-flight points still finish and commit.  The
    returned points (index order) are for the parent to re-run.
    """
    pool = ProcessPoolExecutor(
        max_workers=n_jobs, initializer=_pool_init, initargs=(traces,)
    )
    queue = deque((i, None) for i in todo)
    in_flight: Dict[Future, Tuple[int, Optional[BaseException], float]] = {}
    leftover: List[_Leftover] = []
    healthy = True
    try:
        while True:
            while (queue and healthy and len(in_flight) < n_jobs
                   and not (flag is not None and flag.triggered)):
                i, previous = queue.popleft()
                spec, point, config = entries[i]
                future = pool.submit(_pool_task, i, spec.key, point, config)
                in_flight[future] = (i, previous, monotonic())
                started(i)
            if not in_flight:
                break
            wait_s = None
            if timeout is not None:
                oldest = min(t0 for _, _, t0 in in_flight.values())
                wait_s = max(0.0, oldest + timeout - monotonic())
            wait(in_flight, timeout=wait_s, return_when=FIRST_COMPLETED)
            for future, (i, previous, t0) in list(in_flight.items()):
                if not future.done():
                    if timeout is not None and monotonic() - t0 >= timeout:
                        del in_flight[future]
                        healthy = False
                        leftover.append((i, _FuturesTimeout(
                            f"point exceeded its {timeout:g} s timeout"
                        )))
                    continue
                del in_flight[future]
                exc = future.exception()
                if exc is None:
                    result, seconds, pid = future.result()
                    commit(i, result, seconds, pid, "pool")
                elif isinstance(exc, BrokenProcessPool):
                    healthy = False
                    leftover.append((i, exc))
                elif previous is None:
                    queue.append((i, exc))  # one pool retry (transient crashes)
                else:
                    leftover.append((i, exc))
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=healthy, cancel_futures=True)
    return sorted(leftover + list(queue), key=lambda item: item[0])


def execute(
    entries: Sequence[Entry],
    *,
    jobs: Union[int, str, None] = 1,
    run_dir: Optional[RunDir] = None,
    every_events: int = DEFAULT_EVERY_EVENTS,
    progress: Optional[ProgressFn] = None,
    flag: Optional[InterruptFlag] = None,
    on_result: Optional[ResultFn] = None,
    traces: Optional[Dict[str, Trace]] = None,
    timeout: Optional[float] = None,
    injections: Optional[Mapping[int, Mapping[str, Any]]] = None,
) -> List[ExperimentResult]:
    """Run ``(trace_spec, point, config)`` entries; results in entry order.

    The one executor behind sweeps, resumable runs and ``repro serve``.
    Results are bit-identical for every ``jobs`` value.

    * ``run_dir`` (a :class:`~repro.sim.checkpoint.RunDir`) makes the run
      durable: points already committed there are restored, not re-run
      (one ``executor.resume`` record each), every other point commits
      its ``result.ckpt`` from this process as it lands, and points run
      in this process checkpoint every ``every_events`` events.
    * ``traces`` (keyed by trace-spec key) holds materialized traces; each
      distinct trace a pending point needs is built once, here, and added
      to it, so a caller that keeps the dict never rebuilds a trace.  Pool
      workers inherit the dict through the pool initializer.
    * ``jobs > 1`` runs points over a process pool, at most ``jobs`` in
      flight.  A point that fails in the pool is retried there once, then
      re-run in this process; only a point failing that too raises
      :class:`PointExecutionError`.  ``timeout`` (seconds) bounds a point's
      pool run.  If no pool can start, every point runs here.
    * ``progress`` gets a ``started`` :class:`ProgressEvent` when a point is
      handed to a worker or begins here, and one ``finished`` per point
      (``seconds=None`` for restored points).  ``on_result`` is called
      with ``(index, result, seconds)`` right after each point lands.
    * ``flag`` (an :class:`~repro.sim.checkpoint.InterruptFlag`; with a
      ``run_dir`` and no flag, a fresh one deferring SIGINT/SIGTERM)
      stops the run: no further hand-off, in-flight pool points finish,
      a point running here flushes a checkpoint.  The run then raises
      :class:`SweepInterrupted` with the completed results, as does a
      ``KeyboardInterrupt`` without a flag.
    * ``injections`` is the chaos hook: per point index, an optional
      ``crash_after_saves`` for that point's checkpointer.
    """
    entries = list(entries)
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    total = len(entries)
    results: List[Optional[ExperimentResult]] = [None] * total
    traces = {} if traces is None else traces
    injections = injections or {}
    recovery = run_dir.recovery_log() if run_dir is not None else None
    if flag is None and run_dir is not None:
        flag = InterruptFlag()

    def emit(kind: str, i: int, seconds: Optional[float] = None,
             pid: Optional[int] = None) -> None:
        point = entries[i][1]
        _emit_progress(progress, ProgressEvent(
            kind=kind, index=i, total=total, protocol=point.protocol,
            memory_kb=point.memory_kb, rate=point.rate, seed=point.seed,
            seconds=seconds, pid=os.getpid() if pid is None else pid,
        ))

    def land(i: int, result: ExperimentResult, seconds: Optional[float],
             pid: Optional[int] = None) -> None:
        results[i] = result
        emit("finished", i, seconds, pid)
        if on_result is not None:
            on_result(i, result, seconds)

    def commit(i: int, result: ExperimentResult, seconds: float, pid: int,
               mode: str) -> None:
        if run_dir is not None:
            run_dir.write_result(i, {
                "index": i, "result": result, "info": {"execution": {"mode": mode}},
            })
        land(i, result, seconds, pid)

    todo: List[int] = []
    for i, (_, point, _) in enumerate(entries):
        cached = run_dir.load_result(i) if run_dir is not None else None
        if cached is None:
            todo.append(i)
            continue
        recovery.emit(
            event_types.EXECUTOR_RESUME, kind="point", index=i, protocol=point.protocol
        )
        land(i, cached["result"], None)

    with flag if flag is not None else contextlib.nullcontext():
        try:
            for i in todo:
                spec = entries[i][0]
                if spec.key not in traces:
                    traces[spec.key] = spec.materialize()
            leftover: List[_Leftover] = [(i, None) for i in todo]
            n_jobs = min(parse_jobs(jobs), len(todo))
            if n_jobs > 1:
                try:
                    leftover = _run_pool(
                        entries, todo, n_jobs, traces, timeout, flag,
                        lambda i: emit("started", i), commit,
                    )
                except _POOL_ERRORS as exc:
                    print(
                        f"repro: process pool unavailable ({exc!r}); "
                        "falling back to serial execution",
                        file=sys.stderr,
                    )
                    leftover = [(i, None) for i in todo if results[i] is None]
            for i, pool_exc in leftover:
                if flag is not None and flag.triggered:
                    if recovery is not None:
                        recovery.emit(
                            event_types.EXECUTOR_INTERRUPT, kind="between-points",
                            index=i, signum=flag.signum,
                        )
                    raise SweepInterrupted(results)
                if pool_exc is not None:
                    print(
                        f"repro: sweep point {i} failed in the pool ({pool_exc!r}); "
                        "re-running serially",
                        file=sys.stderr,
                    )
                spec, point, config = entries[i]
                checkpointer = None
                if run_dir is not None:
                    checkpointer = SerialCheckpointer(
                        run_dir.point_dir(i) / "serial",
                        every_events=every_events,
                        flag=flag,
                        recovery=recovery,
                        crash_after_saves=(injections.get(i) or {}).get(
                            "crash_after_saves"
                        ),
                    )
                emit("started", i)
                t0 = perf_counter()
                try:
                    result = _run_point(traces[spec.key], point, config, checkpointer)
                except ExecutionInterrupted:
                    # the point's state is flushed; surface the completed prefix
                    raise SweepInterrupted(results) from None
                except Exception as exc:
                    if pool_exc is None:
                        raise
                    raise PointExecutionError(point, config, spec.key, exc) from exc
                commit(i, result, perf_counter() - t0, os.getpid(), "serial")
        except KeyboardInterrupt:
            raise SweepInterrupted(results) from None
    return results  # type: ignore[return-value]


def run_point_specs(
    entries: Sequence[Entry],
    *,
    jobs: Union[int, str, None] = 1,
    materialized: Optional[Dict[str, Trace]] = None,
    timeout: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
) -> List[ExperimentResult]:
    """Execute ``(trace_spec, point, config)`` entries, possibly in parallel.

    :func:`execute` without a run directory.  ``materialized`` optionally
    seeds its trace table with already-built traces (keyed by spec key) so
    a caller never rebuilds the trace it already holds.
    """
    return execute(
        entries, jobs=jobs, traces=dict(materialized or {}), timeout=timeout,
        progress=progress,
    )


def run_points(
    trace: Trace,
    profile: TraceProfile,
    points: Sequence[PointSpec],
    *,
    jobs: Union[int, str, None] = 1,
    trace_spec: Optional[TraceSpec] = None,
    progress: Optional[ProgressFn] = None,
) -> List[ExperimentResult]:
    """Run experiment ``points`` against one trace, fanning out over workers.

    Results are returned in ``points`` order and are bit-identical across
    ``jobs`` values.  ``trace_spec`` names a cheaper recipe for the trace
    (a profile name or a CSV path) that keeps the rerun provenance; by
    default the trace is an inline spec.  ``progress`` streams per-point
    :class:`ProgressEvent` records.
    """
    spec = trace_spec if trace_spec is not None else TraceSpec.inline(trace)
    entries: List[Entry] = []
    for point in points:
        config = profile.sim_config(
            memory_kb=point.memory_kb, rate=point.rate, seed=point.seed
        )
        if point.scenario is None:
            # stamp the resolved scenario so every profile/path-backed run is
            # re-runnable from its provenance alone (inline traces yield None)
            point = dataclasses.replace(
                point, scenario=point_scenario_dict(spec, point, config)
            )
        entries.append((spec, point, config))
    return run_point_specs(
        entries, jobs=jobs, materialized={spec.key: trace}, progress=progress
    )
