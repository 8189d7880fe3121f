"""Reference protocols outside the paper's comparison set.

* :class:`DirectDeliveryProtocol` — a packet waits at its origin landmark
  for a node that will (eventually) visit the destination, and moves only
  onto such a node.  A floor for success rate and forwarding cost.
* :class:`EpidemicProtocol` — unrestricted replication: every contact and
  every station visit copies packets onward.  A ceiling for success rate
  and a (very loose) ceiling for cost.  **Multi-copy**, so it violates the
  paper's single-copy assumption; it exists to sanity-check the simulator
  and to bracket the other protocols in examples.

Neither appears in the paper's figures; they are used by tests and the
quickstart example.
"""

from __future__ import annotations

import copy
from typing import Dict, Set

from repro.sim.engine import RoutingProtocol, World
from repro.sim.entities import LandmarkStation, MobileNode
from repro.sim.packets import Packet


class DirectDeliveryProtocol(RoutingProtocol):
    """Hand packets only to nodes that have visited the destination before."""

    name = "Direct"
    uses_contacts = False

    def __init__(self) -> None:
        self._visited: Dict[int, Set[int]] = {}

    def on_visit_start(
        self, world: World, node: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        self._visited.setdefault(node.nid, set()).add(station.lid)
        for p in station.buffer.packets():
            if p.dst in self._visited.get(node.nid, ()) and node.buffer.can_accept(p):
                world.station_to_node(station, node, p)


class EpidemicProtocol(RoutingProtocol):
    """Flood copies of every packet to every encountered buffer with room.

    Copies share the original packet's id; the first copy reaching the
    destination landmark delivers, the rest are discarded (the engine
    ignores replicas of delivered packets).
    """

    name = "Epidemic"
    uses_contacts = True

    def _replicate(self, world: World, packet: Packet, target_buffer) -> bool:
        if not packet.in_flight:
            return False
        if not target_buffer.can_accept(packet):
            return False
        clone = copy.copy(packet)
        clone.meta = dict(packet.meta)
        clone.visited = list(packet.visited)
        added = target_buffer.add(clone)
        if added:
            world.metrics.on_forward()
        return added

    def on_visit_start(
        self, world: World, node: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        # station -> node
        for p in station.buffer.packets():
            if p.pid not in node.buffer:
                self._replicate(world, p, node.buffer)
        # node -> station (station keeps replicas for future visitors)
        for p in node.buffer.packets():
            if p.pid not in station.buffer and p.dst != station.lid:
                self._replicate(world, p, station.buffer)

    def on_contact(
        self, world: World, a: MobileNode, b: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        for p in a.buffer.packets():
            if p.pid not in b.buffer:
                self._replicate(world, p, b.buffer)
        for p in b.buffer.packets():
            if p.pid not in a.buffer:
                self._replicate(world, p, a.buffer)
