"""Streaming trace production: equivalence with the materialized path.

Large-trace runs rest on one promise: a trace consumed as a stream
(:class:`~repro.mobility.stream.TraceStream`) is *the same trace* as its
materialized twin — same records, same engine events, same
metrics to the last bit.  These tests pin that promise at every layer:

* the mobility models' ``stream_visits`` generators are deterministic
  and re-iterable: consuming one lazily, chunked, or materialized into a
  :class:`~repro.mobility.trace.Trace` yields exactly the same records
  (``stream_visits`` deliberately draws from per-node RNG streams, so it
  is a *different sample* than the legacy single-RNG ``generate_visits``
  — equivalence holds within the streaming path, not across samplers);
* chunked consumption (``iter_chunks``) loses and reorders nothing;
* the serial engine fed a ``TraceStream`` reproduces the materialized
  run bit-for-bit on both committed ci scenarios (the zero-tolerance
  surface the regression gate gates on).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.baselines import make_protocol
from repro.mobility.stream import TraceStream
from repro.mobility.synthetic import (
    BusConfig,
    BusMobilityModel,
    CampusConfig,
    CampusMobilityModel,
)
from repro.sim.engine import Simulation

REPO = Path(__file__).resolve().parent.parent
CI = REPO / "ci"

SMALL_CAMPUS = CampusConfig(n_nodes=40, days=2)
SMALL_BUS = BusConfig(days=2)


@pytest.mark.parametrize("seed", [0, 3])
def test_campus_stream_matches_materialized(seed):
    model = CampusMobilityModel(SMALL_CAMPUS, seed=seed)
    stream = model.trace_stream()
    trace = stream.materialize()
    assert list(model.stream_visits()) == list(trace.records)
    # same population as the legacy sampler, different draws
    legacy = model.generate_visits()
    assert {r.node for r in trace.records} == {r.node for r in legacy}
    assert {r.landmark for r in trace.records} <= {
        r.landmark for r in legacy
    } | set(range(SMALL_CAMPUS.n_landmarks))


@pytest.mark.parametrize("seed", [0, 3])
def test_bus_stream_matches_materialized(seed):
    model = BusMobilityModel(SMALL_BUS, seed=seed)
    stream = model.trace_stream()
    assert list(model.stream_visits()) == list(stream.materialize().records)


def test_stream_records_are_start_ordered():
    model = CampusMobilityModel(SMALL_CAMPUS, seed=1)
    starts = [rec.start for rec in model.stream_visits()]
    assert starts == sorted(starts)


def test_chunked_consumption_is_lossless():
    model = CampusMobilityModel(SMALL_CAMPUS, seed=2)
    stream = model.trace_stream()
    chunked = [rec for chunk in stream.iter_chunks(97) for rec in chunk]
    assert chunked == list(stream.iter_records())


def test_stream_is_reiterable():
    """A model-backed stream must rebuild identically on every pass."""
    stream = CampusMobilityModel(SMALL_CAMPUS, seed=5).trace_stream()
    assert list(stream.iter_records()) == list(stream.iter_records())


def _scenario_entries(path):
    from repro.eval.scenario import ScenarioSpec

    spec = ScenarioSpec.from_dict(json.loads(path.read_text())).validate()
    profile, tspec, _ = spec.resolve_trace()
    trace = tspec.materialize()
    return trace, spec.entries(profile, tspec)


@pytest.mark.slow
@pytest.mark.parametrize(
    "scenario",
    ["regression-scenario.json", "regression-faulted-scenario.json"],
)
def test_engine_over_trace_stream_bit_identical_on_ci_scenarios(scenario):
    """Serial runs over a TraceStream replay the materialized runs exactly."""
    trace, entries = _scenario_entries(CI / scenario)
    stream = TraceStream.from_trace(trace)
    for _tspec, point, config in entries:
        protocol = point.protocol
        kwargs = point.protocol_kwargs or {}
        base = Simulation(trace, make_protocol(protocol, **kwargs), config).run()
        streamed = Simulation(
            stream, make_protocol(protocol, **kwargs), config
        ).run()
        # provenance carries the trace/stream name and phase timings differ;
        # every metric field must match bit-for-bit
        assert dataclasses.replace(
            streamed,
            trace=base.trace,
            provenance=base.provenance,
            phase_timings=base.phase_timings,
        ) == base, f"{protocol}: streamed metrics diverge from materialized"
