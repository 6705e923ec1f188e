"""Link-level contention model.

Each directed mesh link transfers one flit per cycle. A packet of N flits
occupies the link for N cycles; packets arriving while the link is busy
queue behind it. Tracking a single ``busy_until`` time per link gives
first-come-first-served queueing — the dominant contention effect the
paper's BookSim runs capture — without simulating individual flits.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class LinkStats:
    """Per-link utilisation counters."""

    packets: int = 0
    flits: int = 0
    queueing_cycles: int = 0


class Link:
    """A directed link with single-flit-per-cycle bandwidth and two
    priority classes.

    High-priority (demand) packets arbitrate only among themselves — with
    virtual channels, a high-priority flit never waits behind low-priority
    traffic. Low-priority (background/training) packets use leftover
    bandwidth: they queue behind *both* classes.
    """

    __slots__ = ("busy_until", "busy_until_low", "stats")

    def __init__(self) -> None:
        self.busy_until = 0
        self.busy_until_low = 0
        self.stats = LinkStats()

    def transfer(self, arrival: int, flits: int, low_priority: bool = False) -> int:
        """Send ``flits`` flits arriving at ``arrival``.

        Returns the cycle at which the packet's tail leaves the link,
        accounting for any queueing behind earlier packets of the same (or,
        for low-priority packets, either) class.
        """
        if low_priority:
            start = max(arrival, self.busy_until, self.busy_until_low)
            self.busy_until_low = start + flits
        else:
            start = max(arrival, self.busy_until)
            self.busy_until = start + flits
        self.stats.queueing_cycles += start - arrival
        self.stats.packets += 1
        self.stats.flits += flits
        return start + flits
