"""Behavioural tests for the DTN-FLOW protocol (repro.core.router)."""

import json
import warnings
from pathlib import Path

import pytest

from repro.core.router import (
    META_ASSIGNED_BY,
    META_EXPECTED_DELAY,
    META_NEXT_HOP,
    DTNFlowConfig,
    DTNFlowProtocol,
)
from repro.eval.scenario import ScenarioSpec, preset_names, preset_scenario
from repro.mobility.trace import Trace, VisitRecord, days
from repro.sim.engine import SimConfig, Simulation, run_simulation
from repro.sim.packets import Packet

CI = Path(__file__).resolve().parent.parent / "ci"


def rec(start, end, node, landmark):
    return VisitRecord(start=start, end=end, node=node, landmark=landmark)


def shuttle(n_trips=40, nodes=(0,), period=1000.0, lms=(0, 1)):
    """Nodes shuttling deterministically between two landmarks."""
    recs = []
    for node_idx, node in enumerate(nodes):
        for i in range(n_trips):
            t = i * period + node_idx * period / 2
            recs.append(rec(t, t + period * 0.4, node, lms[i % 2]))
    return Trace(recs, name="shuttle")


def cfg(**kw):
    defaults = dict(
        ttl=days(1.0), rate_per_landmark_per_day=0.0, time_unit=4000.0,
        seed=0, warmup_fraction=0.1,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class TestLearning:
    def test_bandwidth_measured_from_transits(self):
        trace = shuttle()
        proto = DTNFlowProtocol()
        Simulation(trace, proto, cfg()).run()
        st0 = proto.station_state(0)
        assert st0.bw.incoming_bandwidth(1) > 0

    def test_predictor_learns_shuttle(self):
        trace = shuttle()
        proto = DTNFlowProtocol()
        Simulation(trace, proto, cfg()).run()
        ns = proto.node_state(0)
        # the shuttle is perfectly predictable
        assert ns.acc.empirical_rate > 0.9

    def test_routing_tables_converge(self):
        trace = shuttle()
        proto = DTNFlowProtocol()
        Simulation(trace, proto, cfg()).run()
        tables = proto.routing_tables()
        assert tables[0].next_hop(1) == 1
        assert tables[1].next_hop(0) == 0

    def test_maintenance_cost_charged(self):
        trace = shuttle()
        s = run_simulation(trace, DTNFlowProtocol(), cfg())
        assert s.maintenance_ops > 0

    def test_table_handout_once_per_unit_per_neighbor(self):
        """Snapshots are periodic, not per-departure (maintenance saving)."""
        trace = shuttle(n_trips=40, period=1000.0)
        s = run_simulation(trace, DTNFlowProtocol(), cfg(time_unit=4000.0))
        # 40 departures; without the periodic gate every one would carry a
        # snapshot (1 op) plus a backward report (1 op) = ~80 ops.  With
        # snapshots gated to once per time unit (~10 units) the total stays
        # clearly below that.
        assert s.maintenance_ops < 60


class TestForwarding:
    def test_end_to_end_delivery(self):
        trace = shuttle(n_trips=60)
        s = run_simulation(trace, DTNFlowProtocol(), cfg(rate_per_landmark_per_day=40.0))
        assert s.generated > 0
        assert s.success_rate > 0.8

    def test_packet_meta_stamped_on_assignment(self):
        trace = shuttle(n_trips=60)
        proto = DTNFlowProtocol()
        sim = Simulation(trace, proto, cfg(rate_per_landmark_per_day=40.0))
        stamped = []
        orig = sim.world.station_to_node

        def spy(station, node, packet):
            ok = orig(station, node, packet)
            if ok:
                stamped.append(dict(packet.meta))
            return ok

        sim.world.station_to_node = spy
        sim.run()
        assert stamped
        for meta in stamped:
            assert META_NEXT_HOP in meta
            assert META_EXPECTED_DELAY in meta
            assert META_ASSIGNED_BY in meta

    def test_direct_delivery_disabled(self):
        trace = shuttle(n_trips=60)
        config = DTNFlowConfig(use_direct_delivery=False)
        s = run_simulation(trace, DTNFlowProtocol(config), cfg(rate_per_landmark_per_day=40.0))
        assert s.success_rate > 0.5  # table routing alone still works

    def test_loop_stamps_recorded(self):
        trace = shuttle(n_trips=60)
        proto = DTNFlowProtocol()
        sim = Simulation(trace, proto, cfg(rate_per_landmark_per_day=20.0))
        sim.run()
        # delivered packets visited at least their source landmark
        # (stamps happen at generation and at uploads)
        # check on any still-buffered packet:
        for station in sim.world.stations.values():
            for p in station.buffer:
                assert p.visited


class TestPredictionInaccuracyRule:
    def test_stray_carrier_keeps_packet_at_worse_landmark(self):
        """A carrier at a landmark with no better delay keeps the packet."""
        trace = shuttle(n_trips=30)
        proto = DTNFlowProtocol()
        sim = Simulation(trace, proto, cfg())
        sim.run()
        w = sim.world
        node = w.nodes[0]
        # craft: node carries a packet intended for an unreachable landmark
        p = Packet(pid=999, src=0, dst=77, created=w.now, ttl=1e9)
        p.meta[META_NEXT_HOP] = 77
        p.meta[META_EXPECTED_DELAY] = 1.0  # unbeatable
        p.meta[META_ASSIGNED_BY] = 42
        node.buffer.add(p)
        station = w.stations[0]
        station.connected.add(0)
        node.at_landmark = 0
        proto._handover_from_node(w, node, station, w.now)
        assert p.pid in node.buffer  # not uploaded: no improvement possible

    def test_reassignment_at_assigner(self):
        trace = shuttle(n_trips=30)
        proto = DTNFlowProtocol()
        sim = Simulation(trace, proto, cfg())
        sim.run()
        w = sim.world
        node, station = w.nodes[0], w.stations[0]
        p = Packet(pid=999, src=0, dst=77, created=w.now, ttl=1e9)
        p.meta[META_NEXT_HOP] = 77
        p.meta[META_EXPECTED_DELAY] = 1.0
        p.meta[META_ASSIGNED_BY] = 0  # assigned by this very landmark
        node.buffer.add(p)
        station.connected.add(0)
        node.at_landmark = 0
        proto._handover_from_node(w, node, station, w.now)
        assert p.pid in station.buffer  # re-queued for reassignment


class TestDeadEndExtension:
    def test_dead_end_dumps_packets(self):
        """A node stuck far longer than its average hands packets back."""
        recs = []
        # regular short visits to build history
        for i in range(20):
            t = i * 1000.0
            recs.append(rec(t, t + 100, 0, i % 2))
        # then one enormous stay (the dead end) at landmark 0
        recs.append(rec(30_000.0, 300_000.0, 0, 0))
        trace = Trace(recs)
        config = DTNFlowConfig(enable_deadend=True, deadend_gamma=2.0, deadend_min_history=5)
        proto = DTNFlowProtocol(config)
        sim = Simulation(trace, proto, cfg())
        w = sim.world

        held = Packet(pid=5, src=1, dst=9, created=0.0, ttl=1e9)
        held.meta[META_NEXT_HOP] = 9
        held.meta[META_EXPECTED_DELAY] = 1.0  # normally never uploaded
        held.meta[META_ASSIGNED_BY] = 42

        def probe(world):
            world.nodes[0].buffer.add(held)

        sim.probes = [(29_000.0, probe)]
        sim.run()
        # during the dead-end stay the packet was pushed to the station
        assert held.pid not in w.nodes[0].buffer

    def test_no_dump_without_extension(self):
        recs = []
        for i in range(20):
            t = i * 1000.0
            recs.append(rec(t, t + 100, 0, i % 2))
        recs.append(rec(30_000.0, 300_000.0, 0, 0))
        trace = Trace(recs)
        proto = DTNFlowProtocol(DTNFlowConfig(enable_deadend=False))
        sim = Simulation(trace, proto, cfg())
        held = Packet(pid=5, src=1, dst=9, created=0.0, ttl=1e9)
        held.meta[META_NEXT_HOP] = 9
        held.meta[META_EXPECTED_DELAY] = 1.0
        held.meta[META_ASSIGNED_BY] = 42
        sim.probes = [(29_000.0, lambda w: w.nodes[0].buffer.add(held))]
        sim.run()
        assert held.pid in sim.world.nodes[0].buffer


class TestLoopCorrectionExtension:
    def test_revisit_triggers_correction(self):
        trace = shuttle(n_trips=40)
        config = DTNFlowConfig(enable_loop_correction=True, loop_hold_time=5000.0)
        proto = DTNFlowProtocol(config)
        sim = Simulation(trace, proto, cfg())
        w = sim.world
        proto.setup(w)
        node, station = w.nodes[0], w.stations[0]
        p = Packet(pid=7, src=1, dst=1, created=0.0, ttl=1e9)
        # previously held at 0, then cycled through two other landmarks:
        # re-entering 0 closes a genuine routing cycle
        p.visited = [0, 1, 2]
        p.dst = 99
        p.meta[META_NEXT_HOP] = 0
        node.buffer.add(p)
        station.connected.add(0)
        node.at_landmark = 0
        w.now = 100.0
        proto._handover_from_node(w, node, station, 100.0)
        assert proto.loop_corrector.n_loops_detected == 1


class TestNodeRoutingExtension:
    def test_address_to_node_requires_flag(self):
        proto = DTNFlowProtocol(DTNFlowConfig(enable_node_routing=False))
        p = Packet(pid=0, src=0, dst=1, created=0.0, ttl=10.0)
        with pytest.raises(RuntimeError):
            proto.address_to_node(p, dest_node=3)

    def test_packet_delivered_to_node_at_home_landmark(self):
        trace = shuttle(n_trips=60)
        config = DTNFlowConfig(enable_node_routing=True)
        proto = DTNFlowProtocol(config)
        sim = Simulation(trace, proto, cfg())

        injected = {}

        def probe(world):
            p = Packet(pid=12345, src=1, dst=0, created=world.now, ttl=1e9)
            proto.address_to_node(p, dest_node=0)
            home = p.dst
            world.stations[home].buffer.add(p)
            injected["p"] = p

        sim.probes = [(trace.duration * 0.6, probe)]
        sim.run()
        assert injected["p"].delivered_at is not None


class TestAblation:
    def test_accuracy_refinement_affects_selection(self):
        """IV-D.4 ablation: with refinement off the carrier choice ignores
        per-node accuracy (run must still work end-to-end)."""
        trace = shuttle(n_trips=60, nodes=(0, 1))
        base = run_simulation(
            trace, DTNFlowProtocol(), cfg(rate_per_landmark_per_day=40.0)
        )
        # accuracy factors that freeze the tracker at 0.5 are not allowed by
        # validation; emulate "no refinement" with nearly-neutral factors
        neutral = DTNFlowConfig(accuracy_up=1.0001, accuracy_down=0.9999)
        alt = run_simulation(
            trace, DTNFlowProtocol(neutral), cfg(rate_per_landmark_per_day=40.0)
        )
        assert base.generated == alt.generated
        assert alt.success_rate > 0.5


class TestNodeToNodeEnhancement:
    """The paper's Section VI future work: hybrid node-to-node rescue."""

    def test_contacts_enabled_by_flag(self):
        assert DTNFlowProtocol().uses_contacts is False
        assert DTNFlowProtocol(
            DTNFlowConfig(enable_node_to_node=True)
        ).uses_contacts is True

    def test_packet_moves_to_better_predicted_peer(self):
        trace = shuttle(n_trips=30, nodes=(0, 1))
        proto = DTNFlowProtocol(DTNFlowConfig(enable_node_to_node=True))
        sim = Simulation(trace, proto, cfg())
        w = sim.world
        proto.setup(w)
        a, b = w.nodes[0], w.nodes[1]
        proto._nodes[0].predicted = 5   # holder headed elsewhere
        proto._nodes[1].predicted = 9   # peer headed to the next hop
        p = Packet(pid=3, src=0, dst=9, created=0.0, ttl=1e9)
        p.meta[META_NEXT_HOP] = 9
        a.buffer.add(p)
        proto.on_contact(w, a, b, w.stations[0], 10.0)
        assert p.pid in b.buffer
        assert p.pid not in a.buffer

    def test_no_move_when_holder_already_suitable(self):
        trace = shuttle(n_trips=30, nodes=(0, 1))
        proto = DTNFlowProtocol(DTNFlowConfig(enable_node_to_node=True))
        sim = Simulation(trace, proto, cfg())
        w = sim.world
        proto.setup(w)
        a, b = w.nodes[0], w.nodes[1]
        proto._nodes[0].predicted = 9
        proto._nodes[1].predicted = 9
        p = Packet(pid=3, src=0, dst=9, created=0.0, ttl=1e9)
        p.meta[META_NEXT_HOP] = 9
        a.buffer.add(p)
        proto.on_contact(w, a, b, w.stations[0], 10.0)
        assert p.pid in a.buffer

    def test_enhancement_does_not_hurt_end_to_end(self, dart_tiny, tiny_sim_config):
        base = run_simulation(dart_tiny, DTNFlowProtocol(), tiny_sim_config)
        enh = run_simulation(
            dart_tiny,
            DTNFlowProtocol(DTNFlowConfig(enable_node_to_node=True)),
            tiny_sim_config,
        )
        assert enh.success_rate >= base.success_rate - 0.03


class TestDegenerateTimeUnit:
    """A time unit spanning the post-warm-up trace leaves DTN-FLOW unable
    to measure a single link; setup warns instead of silently not routing."""

    @staticmethod
    def _time_unit_warnings(trace, config):
        sim = Simulation(trace, DTNFlowProtocol(), config)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sim.protocol.setup(sim.world)
        return [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "time_unit" in str(w.message)
        ]

    def test_warns_when_unit_covers_post_warmup_span(self):
        trace = shuttle()  # 39.4k s long; 10% warm-up leaves ~35.5k s
        assert self._time_unit_warnings(trace, cfg(time_unit=days(3.0)))
        assert self._time_unit_warnings(trace, cfg(time_unit=trace.duration))
        assert not self._time_unit_warnings(trace, cfg())

    def test_no_preset_or_ci_scenario_is_degenerate(self):
        specs = {name: preset_scenario(name) for name in preset_names()}
        for path in sorted(CI.glob("*scenario.json")):
            specs[path.name] = ScenarioSpec.from_dict(
                json.loads(path.read_text())
            ).validate()
        assert {"regression-scenario.json",
                "regression-faulted-scenario.json"} <= set(specs)
        traces = {}
        for name, spec in specs.items():
            profile, tspec, materialized = spec.resolve_trace()
            seen = set()
            for _tspec, _point, config in spec.entries(profile, tspec):
                key = (tspec.key, config.time_unit, config.warmup_fraction)
                if key in seen:
                    continue
                seen.add(key)
                if tspec.key not in traces:
                    traces[tspec.key] = (
                        materialized.get(tspec.key) or tspec.materialize()
                    )
                fired = self._time_unit_warnings(traces[tspec.key], config)
                assert not fired, f"{name}: {fired[0].message}"
