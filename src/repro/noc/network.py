"""The mesh network: routing + router pipeline + link contention + stats."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.noc.router import Link
from repro.noc.topology import MeshTopology


@dataclass(frozen=True, slots=True)
class NocConfig:
    """Mesh parameters (Table II: 2x2 mesh, 3-cycle routers).

    Attributes:
        width/height: Mesh dimensions.
        router_latency: Pipeline depth of each router in cycles.
        flit_bytes: Link width; a 64 B cache block becomes
            ``block_bytes / flit_bytes`` flits plus a head flit.
        control_flits: Size of a request/control packet in flits.
    """

    width: int = 2
    height: int = 2
    router_latency: int = 3
    flit_bytes: int = 32
    control_flits: int = 1

    def __post_init__(self) -> None:
        if self.router_latency < 1:
            raise ConfigurationError("router latency must be >= 1")
        if self.flit_bytes < 1:
            raise ConfigurationError("flit width must be >= 1 byte")
        if self.control_flits < 1:
            raise ConfigurationError("control packets need >= 1 flit")

    def data_flits(self, block_bytes: int = 64) -> int:
        """Flits in a data reply carrying one cache block (+ head flit)."""
        return 1 + (block_bytes + self.flit_bytes - 1) // self.flit_bytes


@dataclass(slots=True)
class PacketTimings:
    """Timing of one packet through the mesh."""

    departure: int
    arrival: int

    @property
    def latency(self) -> int:
        """End-to-end cycles including queueing."""
        return self.arrival - self.departure


@dataclass(slots=True)
class NetworkStats:
    """Aggregate network counters (traffic feeds the energy model)."""

    packets: int = 0
    flit_hops: int = 0
    total_latency: int = 0
    total_queueing: int = 0

    @property
    def average_latency(self) -> float:
        """Mean end-to-end packet latency in cycles."""
        return self.total_latency / self.packets if self.packets else 0.0


class MeshNetwork:
    """Packet-level mesh with XY routing and per-link FCFS contention."""

    def __init__(self, config: NocConfig = NocConfig()) -> None:
        self.config = config
        self.topology = MeshTopology(config.width, config.height)
        self.stats = NetworkStats()
        self._links: Dict[Tuple[int, int], Link] = {}
        #: (src, dst) -> the links of its XY route, built on first use.
        self._routes: Dict[Tuple[int, int], List[Link]] = {}

    def _link(self, key: Tuple[int, int]) -> Link:
        link = self._links.get(key)
        if link is None:
            link = Link()
            self._links[key] = link
        return link

    def _route_links(self, src: int, dst: int) -> List[Link]:
        """The links of the ``src`` -> ``dst`` route, cached per pair.

        Built through :meth:`MeshTopology.route`, so an unknown node
        raises :class:`ConfigurationError` (and is never cached).
        """
        links = [self._link(hop) for hop in self.topology.route(src, dst)]
        self._routes[(src, dst)] = links
        return links

    def send(
        self,
        src: int,
        dst: int,
        departure: int,
        flits: int,
        low_priority: bool = False,
    ) -> PacketTimings:
        """Send a ``flits``-flit packet from ``src`` to ``dst`` at ``departure``.

        The head flit pays the router pipeline at every hop (plus the
        injection router); the tail follows at one flit per cycle, queueing
        behind earlier packets on each link. Local (src == dst) deliveries
        pay a single router traversal. ``low_priority`` packets ride
        leftover bandwidth and never delay demand traffic (the Aergia-style
        deprioritization of approximated fetches, Section VI-C).
        """
        links = self._routes.get((src, dst))
        if links is None:
            links = self._route_links(src, dst)
        stats = self.stats
        stats.packets += 1
        router_latency = self.config.router_latency
        if not links:
            arrival = departure + router_latency
            stats.total_latency += arrival - departure
            return PacketTimings(departure, arrival)
        queueing = 0
        # Wormhole switching: the head flit pays the router pipeline at each
        # hop (plus injection) and may queue for a busy link; the body
        # pipelines behind it, so serialization is paid once at the end.
        head = departure + router_latency  # injection router
        for link in links:
            head += router_latency
            start = link.transfer(head, flits, low_priority) - flits
            queueing += start - head
            head = start
        stats.flit_hops += flits * len(links)
        arrival = head + flits
        stats.total_latency += arrival - departure
        stats.total_queueing += queueing
        return PacketTimings(departure, arrival)

    def request_reply(
        self, src: int, dst: int, departure: int, block_bytes: int = 64
    ) -> PacketTimings:
        """A control request to ``dst`` followed by a data reply to ``src``.

        Returns timings whose ``arrival`` is when the data reply's tail
        reaches ``src`` (the service time at ``dst`` is added by the
        caller between the two legs via :meth:`send` if it needs finer
        control; this helper assumes zero service time).
        """
        request = self.send(src, dst, departure, self.config.control_flits)
        reply = self.send(dst, src, request.arrival, self.config.data_flits(block_bytes))
        return PacketTimings(departure, reply.arrival)

    def reset(self) -> None:
        """Clear link occupancy, the route cache and statistics."""
        self._links.clear()
        self._routes.clear()
        self.stats = NetworkStats()
