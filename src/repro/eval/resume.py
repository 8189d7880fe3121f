"""Resumable scenario runs: one durable run directory per sweep.

A *run directory* (see :class:`~repro.sim.checkpoint.RunDir`) makes a
scenario execution crash-safe end to end:

* the manifest pins the fully-resolved scenario and its content hash, so a
  resume can never silently continue a *different* experiment;
* every finished sweep point is committed as a framed
  ``points/<i>/result.ckpt`` the moment it completes — a later crash never
  re-runs it;
* a point running in the parent process checkpoints incrementally (every
  N dispatched events via :class:`~repro.sim.checkpoint.SerialCheckpointer`),
  so even the interrupted point resumes mid-run;
* all recovery actions land in ``recovery.jsonl`` as ``executor.*``
  events.

:func:`run_resumable` is create-or-continue: pointed at a fresh directory
it runs the whole grid; pointed at a partial one it skips committed points
and restarts the rest from their newest checkpoints.  Either way it is one
:func:`~repro.eval.runner.execute` call, serial or pooled (``jobs``).
``repro resume`` and ``--run-dir`` on ``repro run`` / ``repro scenario
run`` are thin CLI shims over it.  Metrics are bit-identical to an
uninterrupted run — the regression gate (``repro db regress`` at zero
tolerance) holds across any kill/resume sequence.  See docs/reliability.md.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.eval.runner import ProgressFn, ResultFn, execute
from repro.eval.scenario import ScenarioResult, ScenarioSpec
from repro.sim.checkpoint import (
    DEFAULT_EVERY_EVENTS,
    CheckpointError,
    InterruptFlag,
    RunDir,
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
    jobs: Union[int, str, None] = 1,
    every_events: int = DEFAULT_EVERY_EVENTS,
    injections: Optional[Mapping[int, Mapping[str, Any]]] = None,
    progress: Optional[ProgressFn] = None,
    flag: Optional[InterruptFlag] = None,
    on_result: Optional[ResultFn] = None,
    trace_cache: Optional[Dict[str, Any]] = None,
) -> Tuple[ScenarioResult, List[Optional[Dict[str, Any]]]]:
    """Run (or continue) every point of ``spec`` inside ``run_dir``.

    One :func:`~repro.eval.runner.execute` call: committed points are
    skipped outright, the rest run over ``jobs`` processes (points run in
    this process checkpoint through :meth:`Simulation.run_checkpointed`,
    resuming from whatever checkpoints the directory already holds).

    A deferred SIGINT/SIGTERM stops the run (the in-flight serial point
    flushes its state, in-flight pool points finish and commit) and
    raises :class:`~repro.eval.runner.SweepInterrupted` carrying the
    completed results (index-aligned, ``None`` for unfinished) so callers
    can record the partial sweep; re-invoking with the same directory
    finishes it.

    ``injections`` is the chaos hook: a per-point-index mapping with an
    optional ``crash_after_saves`` key (forwarded to the checkpointer).
    Production callers leave it ``None``.  ``progress``, ``flag`` and
    ``on_result`` are :func:`~repro.eval.runner.execute`'s job-level hooks
    (``repro serve`` uses them); ``trace_cache`` is its trace table,
    shared across calls so a long-running server builds each trace once.

    Returns the scenario result and each point's committed ``info`` block
    (``{"execution": {"mode": "serial" | "pool"}}``).
    """
    profile, tspec, materialized = spec.resolve_trace()
    entries = spec.entries(profile, tspec)
    traces = trace_cache if trace_cache is not None else {}
    for key, trace in materialized.items():
        traces.setdefault(key, trace)
    results = execute(
        entries,
        jobs=jobs,
        run_dir=run_dir,
        every_events=every_events,
        progress=progress,
        flag=flag,
        on_result=on_result,
        traces=traces,
        injections=injections,
    )
    infos = [(run_dir.load_result(i) or {}).get("info") for i in range(len(entries))]
    return (
        ScenarioResult(spec=spec, points=[p for _, p, _ in entries], results=results),
        infos,
    )


def resume_run(
    path: Union[str, Path],
) -> Tuple[ScenarioResult, List[Optional[Dict[str, Any]]], ScenarioSpec]:
    """Continue the run in ``path`` from its last complete checkpoints.

    The scenario and checkpoint cadence both come from the manifest, so a
    resume cannot drift from the original invocation.
    """
    rd, spec, every = open_run(path)
    result, infos = run_resumable(spec, rd, every_events=every)
    return result, infos, spec
