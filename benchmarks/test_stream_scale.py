"""Streaming scale benchmark: DTN-FLOW over a 200-landmark campus stream.

A synthetic campus trace far past the paper's scale (DART has 320 nodes)
runs through one ``Simulation`` fed a ``TraceStream``: records are
generated lazily and never materialized, so resident memory is
O(nodes + open visits) rather than O(records).  The run must actually
route (``delivered > 0``) and stay within the RSS budget.  Wall clock,
peak RSS and delivery are recorded into ``BENCH_sweeps.json`` under
``stream_scale`` via the conftest recorder.

By default a 10k-node population keeps the suite fast (~40 s on a
2-vCPU host); ``REPRO_FULL_SCALE=1`` runs 100,000 nodes (~2M visit
records).
"""

from __future__ import annotations

import resource
from time import perf_counter

from repro.baselines import make_protocol
from repro.eval.config import full_scale, profile_for_trace
from repro.mobility.synthetic import CampusConfig, CampusMobilityModel
from repro.sim.engine import SimConfig, Simulation

from .conftest import record_bench

N_NODES = 100_000 if full_scale() else 10_000
SEED = 11

#: 40 departments x 3 buildings + 50 dorms + 15 dining + 14 misc + library
#: = 200 landmarks
CAMPUS = CampusConfig(
    n_nodes=N_NODES,
    n_departments=40,
    buildings_per_department=3,
    n_dorms=50,
    n_dining=15,
    n_misc=14,
    days=3,
    holidays=(),
)

#: peak RSS allowed at 100k nodes; the materialized trace alone (~2M
#: VisitRecords plus replay cache) exceeds this before any simulation state
RSS_BUDGET_KB = 4_000_000


def test_stream_scale_run():
    assert CAMPUS.n_landmarks == 200
    stream = CampusMobilityModel(CAMPUS, seed=SEED).trace_stream(
        f"campus-{N_NODES // 1000}k"
    )
    # the 3-day trace needs a sub-trace bandwidth unit (0.25 d): the
    # SimConfig default of 3 days never completes one, and nothing routes
    config = SimConfig(
        seed=SEED,
        rate_per_landmark_per_day=20.0,
        workload_scale=0.1,
        node_memory_kb=2000.0,
        generation_end_fraction=0.6,
        time_unit=profile_for_trace(stream).time_unit,
    )

    t0 = perf_counter()
    m = Simulation(stream, make_protocol("DTN-FLOW"), config).run()
    wall = perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    assert m.generated > 0
    assert m.delivered > 0
    assert rss < RSS_BUDGET_KB, (
        f"peak RSS {rss} kB blows the {RSS_BUDGET_KB} kB budget"
    )

    record_bench("stream_scale", {
        "n_nodes": N_NODES,
        "n_landmarks": CAMPUS.n_landmarks,
        "full_scale": full_scale(),
        "time_unit_s": config.time_unit,
        "wall_seconds": round(wall, 2),
        "generated": m.generated,
        "delivered": m.delivered,
        "max_rss_kb": rss,
    })

    print(
        f"\n{N_NODES} nodes / {CAMPUS.n_landmarks} landmarks: {wall:.1f}s "
        f"wall, {m.delivered}/{m.generated} delivered, "
        f"peak RSS {rss / 1024:.0f} MB"
    )
