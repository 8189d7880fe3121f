"""Resumable scenario runs: one durable run directory per sweep.

A *run directory* (see :class:`~repro.sim.checkpoint.RunDir`) makes a
scenario execution crash-safe end to end:

* the manifest pins the fully-resolved scenario and its content hash, so a
  resume can never silently continue a *different* experiment;
* every finished sweep point is committed as a framed
  ``points/<i>/result.ckpt`` the moment it completes — a later crash never
  re-runs it;
* the in-flight point checkpoints incrementally (every N dispatched events
  via :class:`~repro.sim.checkpoint.SerialCheckpointer`), so even the
  interrupted point resumes mid-run;
* all recovery actions land in ``recovery.jsonl`` as ``executor.*``
  events.

:func:`run_resumable` is create-or-continue: pointed at a fresh directory
it runs the whole grid; pointed at a partial one it skips committed points
and restarts the rest from their newest checkpoints.  ``repro resume``
(and ``--run-dir`` on ``repro scenario run``) are thin CLI shims over
:func:`resume_run`.  Metrics are bit-identical to an uninterrupted run —
the regression gate (``repro db regress`` at zero tolerance) holds across
any kill/resume sequence.  See docs/reliability.md.
"""

from __future__ import annotations

import os
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.eval.experiment import ExperimentResult, execute_config
from repro.eval.runner import ProgressEvent, ProgressFn, SweepInterrupted
from repro.eval.scenario import ScenarioResult, ScenarioSpec
from repro.obs import events as event_types
from repro.obs.registry import MetricsRegistry
from repro.sim.checkpoint import (
    DEFAULT_EVERY_EVENTS,
    CheckpointError,
    ExecutionInterrupted,
    InterruptFlag,
    RunDir,
    SerialCheckpointer,
)
from repro.store.db import content_hash

__all__ = [
    "MANIFEST_VERSION",
    "create_run",
    "open_run",
    "resume_run",
    "run_resumable",
]

MANIFEST_VERSION = 1


def create_run(
    path: Union[str, Path],
    spec: ScenarioSpec,
    *,
    every_events: int = DEFAULT_EVERY_EVENTS,
) -> RunDir:
    """Create a run directory for ``spec``; refuses to clobber another run.

    The manifest stores the *normalized* scenario (``as_dict`` round-trip)
    plus its content hash; :func:`open_run` re-hashes on load so a resume
    against an edited or corrupted manifest fails loudly instead of
    continuing the wrong experiment.
    """
    rd = RunDir(path)
    scenario = spec.validate().as_dict()
    if rd.exists():
        existing = rd.read_manifest()
        if existing.get("content_hash") != content_hash(scenario):
            raise CheckpointError(
                f"{rd.path} already holds a different scenario "
                f"(hash {existing.get('content_hash')!r}); refusing to reuse it"
            )
        return rd
    manifest = {
        "version": MANIFEST_VERSION,
        "kind": "scenario-run",
        "scenario": scenario,
        "content_hash": content_hash(scenario),
        "every_events": int(every_events),
    }
    return RunDir.create(path, manifest)


def open_run(path: Union[str, Path]) -> Tuple[RunDir, ScenarioSpec, int]:
    """Open an existing run directory, verifying its manifest hash.

    Returns ``(run_dir, spec, every_events)``.  Manifest keys other than
    the scenario, its hash and the cadence are ignored.
    """
    rd = RunDir(path)
    manifest = rd.read_manifest()
    version = manifest.get("version")
    if version != MANIFEST_VERSION:
        raise CheckpointError(
            f"{rd.path}: unsupported run-directory version {version!r} "
            f"(this package writes {MANIFEST_VERSION})"
        )
    scenario = manifest.get("scenario")
    if not isinstance(scenario, Mapping):
        raise CheckpointError(f"{rd.path}: manifest has no scenario block")
    spec = ScenarioSpec.from_dict(scenario)
    declared = manifest.get("content_hash")
    actual = content_hash(spec.as_dict())
    if declared != actual:
        raise CheckpointError(
            f"{rd.path}: manifest content hash mismatch (declared "
            f"{declared!r}, resolved scenario hashes to {actual!r}); "
            "the manifest was edited or corrupted — not resuming"
        )
    every = int(manifest.get("every_events") or DEFAULT_EVERY_EVENTS)
    return rd, spec, every


def run_resumable(
    spec: ScenarioSpec,
    run_dir: RunDir,
    *,
    every_events: int = DEFAULT_EVERY_EVENTS,
    registry: Optional[MetricsRegistry] = None,
    injections: Optional[Mapping[int, Mapping[str, Any]]] = None,
    progress: Optional[ProgressFn] = None,
    flag: Optional[InterruptFlag] = None,
    on_result: Optional[Callable[[int, ExperimentResult], None]] = None,
    trace_cache: Optional[Dict[str, Any]] = None,
) -> Tuple[ScenarioResult, List[Optional[Dict[str, Any]]]]:
    """Run (or continue) every point of ``spec`` inside ``run_dir``.

    Committed points are skipped outright; the rest execute with
    checkpointing on through :meth:`Simulation.run_checkpointed`, resuming
    from whatever checkpoints the directory already holds.

    A deferred SIGINT/SIGTERM flushes the in-flight point's state and
    raises :class:`~repro.eval.runner.SweepInterrupted` carrying the
    completed results (index-aligned, ``None`` for unfinished) so callers
    can record the partial sweep; re-invoking with the same directory
    finishes it.

    ``injections`` is the chaos hook: a per-point-index mapping with an
    optional ``crash_after_saves`` key (forwarded to the checkpointer).
    Production callers leave it ``None``.

    Job-level hooks (used by ``repro serve``, harmless elsewhere):

    * ``progress`` receives a :class:`~repro.eval.runner.ProgressEvent`
      as each point starts and finishes.  Points restored from a committed
      ``result.ckpt`` emit a single ``finished`` event with
      ``seconds=None`` so consumers can count them without re-timing them.
    * ``flag`` supplies an externally-owned
      :class:`~repro.sim.checkpoint.InterruptFlag`; setting its
      ``triggered`` attribute from another thread cancels the run at the
      next checkpoint tick (in-flight state flushed, the usual
      :class:`SweepInterrupted` raised).  Default: a fresh flag wired to
      SIGINT/SIGTERM (signal handlers only install on the main thread).
    * ``on_result`` is called with ``(index, result)`` right after a
      point's ``result.ckpt`` commits — metrics stream out as they land
      instead of when the whole grid finishes.
    * ``trace_cache`` (keyed by trace-spec key) shares materialized traces
      across calls, so a long-running server rebuilds each trace once.
    """
    profile, tspec, materialized = spec.resolve_trace()
    entries = spec.entries(profile, tspec)
    recovery = run_dir.recovery_log(registry)
    injections = dict(injections or {})
    trace = None
    points = [point for _, point, _ in entries]
    results: List[Optional[ExperimentResult]] = [None] * len(entries)
    infos: List[Optional[Dict[str, Any]]] = [None] * len(entries)
    total = len(entries)
    pid = os.getpid()

    def emit(kind: str, i: int, point: Any, seconds: Optional[float]) -> None:
        if progress is None:
            return
        try:
            progress(ProgressEvent(
                kind=kind, index=i, total=total, protocol=point.protocol,
                memory_kb=point.memory_kb, rate=point.rate, seed=point.seed,
                seconds=seconds, pid=pid,
            ))
        except Exception:  # telemetry must never break the run
            pass

    with (flag if flag is not None else InterruptFlag()) as flag:
        for i, (_tspec, point, config) in enumerate(entries):
            cached = run_dir.load_result(i)
            if cached is not None:
                results[i] = cached["result"]
                infos[i] = cached.get("info")
                recovery.emit(
                    event_types.EXECUTOR_RESUME, kind="point",
                    index=i, protocol=point.protocol,
                )
                emit("finished", i, point, None)
                if on_result is not None:
                    on_result(i, cached["result"])
                continue
            if flag.triggered:
                recovery.emit(
                    event_types.EXECUTOR_INTERRUPT, kind="between-points",
                    index=i, signum=flag.signum,
                )
                raise SweepInterrupted(results)
            if trace is None:
                if trace_cache is not None:
                    trace = trace_cache.get(tspec.key)
                if trace is None:
                    trace = materialized.get(tspec.key)
                if trace is None:
                    trace = tspec.materialize()
                if trace_cache is not None:
                    trace_cache.setdefault(tspec.key, trace)
            inj = dict(injections.get(i) or {})
            point_dir = run_dir.point_dir(i)
            checkpointer = SerialCheckpointer(
                point_dir / "serial",
                every_events=every_events,
                flag=flag,
                recovery=recovery,
                crash_after_saves=inj.get("crash_after_saves"),
            )
            emit("started", i, point, None)
            t0 = perf_counter()
            try:
                result = execute_config(
                    trace, point.protocol, config,
                    memory_kb=point.memory_kb,
                    rate=point.rate,
                    seed=point.seed,
                    protocol_kwargs=point.protocol_kwargs,
                    scenario=point.scenario,
                    checkpointer=checkpointer,
                )
                info = {"execution": {"mode": "serial"}}
            except ExecutionInterrupted:
                # the in-flight point's state is already flushed; surface
                # the completed prefix so the caller can record it
                raise SweepInterrupted(results) from None
            run_dir.write_result(i, {"index": i, "result": result, "info": info})
            results[i] = result
            infos[i] = info
            emit("finished", i, point, perf_counter() - t0)
            if on_result is not None:
                on_result(i, result)
    return (
        ScenarioResult(spec=spec, points=points, results=list(results)),
        infos,
    )


def resume_run(
    path: Union[str, Path],
    *,
    registry: Optional[MetricsRegistry] = None,
) -> Tuple[ScenarioResult, List[Optional[Dict[str, Any]]], ScenarioSpec]:
    """Continue the run in ``path`` from its last complete checkpoints.

    The scenario and checkpoint cadence both come from the manifest, so a
    resume cannot drift from the original invocation.
    """
    rd, spec, every = open_run(path)
    result, infos = run_resumable(
        spec, rd, every_events=every, registry=registry
    )
    return result, infos, spec
