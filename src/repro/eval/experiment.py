"""Single-experiment runner tying traces, protocols and configs together."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.baselines import make_protocol
from repro.eval.config import TraceProfile
from repro.mobility.trace import Trace
from repro.obs import Observability
from repro.sim.engine import SimConfig, Simulation
from repro.sim.metrics import MetricsSummary


@dataclass(frozen=True)
class ExperimentResult:
    """A labelled metrics summary with the knobs that produced it."""

    protocol: str
    trace: str
    memory_kb: float
    rate: float
    seed: int
    metrics: MetricsSummary


def execute_config(
    trace: Trace,
    protocol_name: str,
    config: SimConfig,
    *,
    memory_kb: float,
    rate: float,
    seed: int,
    protocol_kwargs: Optional[dict] = None,
    scenario: Optional[dict] = None,
    obs: Optional[Observability] = None,
    checkpointer=None,
) -> ExperimentResult:
    """Run one experiment from a fully-resolved :class:`SimConfig`.

    The point executor (:func:`repro.eval.runner.execute`) runs every
    sweep point through here, in the parent or in a pool worker: a config
    resolved once in the parent yields bit-identical results wherever it
    runs.
    ``scenario`` (a resolved-scenario dict) is stamped into the run's
    provenance for exact reruns.  ``obs`` overrides the run's observability
    context (``repro profile`` injects one whose spans share a recorder).
    ``checkpointer`` (a :class:`~repro.sim.checkpoint.SerialCheckpointer`)
    switches to the crash-safe loop: restore from the newest complete
    checkpoint, snapshot every N events — bit-identical either way.
    """
    protocol = make_protocol(protocol_name, **(protocol_kwargs or {}))
    sim = Simulation(trace, protocol, config, obs=obs, scenario=scenario)
    if checkpointer is None:
        summary = sim.run()
    else:
        summary = sim.run_checkpointed(checkpointer)
    return ExperimentResult(
        protocol=protocol_name,
        trace=trace.name,
        memory_kb=memory_kb,
        rate=rate,
        seed=seed,
        metrics=summary,
    )


def run_point(
    trace: Trace,
    profile: TraceProfile,
    protocol_name: str,
    *,
    memory_kb: float = 2000.0,
    rate: float = 500.0,
    seed: int = 0,
    protocol_kwargs: Optional[dict] = None,
) -> ExperimentResult:
    """Run one (trace, protocol, memory, rate) experiment point."""
    config = profile.sim_config(memory_kb=memory_kb, rate=rate, seed=seed)
    return execute_config(
        trace,
        protocol_name,
        config,
        memory_kb=memory_kb,
        rate=rate,
        seed=seed,
        protocol_kwargs=protocol_kwargs,
    )


def run_matrix(
    trace: Trace,
    profile: TraceProfile,
    protocols: Sequence[str],
    *,
    memory_kb: float = 2000.0,
    rate: float = 500.0,
    seed: int = 0,
    jobs: int = 1,
    trace_spec=None,
) -> Dict[str, ExperimentResult]:
    """Run every protocol on the same workload; keyed by protocol name.

    ``jobs > 1`` fans the protocols out over worker processes (see
    :mod:`repro.eval.runner`); results are bit-identical to ``jobs=1``.
    """
    # runner imports this module; resolve the cycle lazily
    from repro.eval.runner import PointSpec, run_points

    points = [
        PointSpec(protocol=name, memory_kb=memory_kb, rate=rate, seed=seed)
        for name in protocols
    ]
    results = run_points(trace, profile, points, jobs=jobs, trace_spec=trace_spec)
    return {p.protocol: r for p, r in zip(points, results)}
