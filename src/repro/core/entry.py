"""A single approximator-table entry (Figure 3).

Each direct-mapped entry holds the tag of the context that allocated it, a
saturating confidence counter, a degree counter and a local history buffer
of the precise values that followed this context.
"""

from __future__ import annotations

from typing import Union

from repro.core.confidence import SaturatingCounter
from repro.core.history import HistoryBuffer

Number = Union[int, float]


class ApproximatorEntry:
    """Mutable state of one approximator-table entry."""

    __slots__ = ("tag", "confidence", "degree_counter", "lhb", "max_degree")

    def __init__(
        self,
        tag: int,
        confidence_bits: int,
        lhb_size: int,
        max_degree: int,
    ) -> None:
        self.tag = tag
        self.confidence = SaturatingCounter(confidence_bits)
        self.lhb = HistoryBuffer(lhb_size)
        self.max_degree = max_degree
        # Initialised to the maximum approximation degree (Section III-C):
        # the first `max_degree` approximations skip the fetch, then the
        # entry fetches and trains.
        self.degree_counter = max_degree

    def reallocate(self, tag: int) -> None:
        """Repurpose the entry for a new context (tag conflict).

        Hardware would simply overwrite the entry; the confidence counter,
        degree counter and LHB all restart cold.
        """
        self.tag = tag
        self.confidence.reset(0)
        self.lhb.clear()
        self.degree_counter = self.max_degree

    def consume_degree(self) -> bool:
        """Advance the degree counter for one approximation.

        Returns True when the block fetch should be skipped (counter was
        above zero), False when the counter has reached zero and the entry
        must fetch + train. The reset back to ``max_degree`` happens at
        training time via :meth:`reset_degree`.
        """
        if self.degree_counter > 0:
            self.degree_counter -= 1
            return True
        return False

    def reset_degree(self) -> None:
        """Reset the degree counter after a training fetch (Section III-C)."""
        self.degree_counter = self.max_degree

    def __repr__(self) -> str:
        return (
            f"ApproximatorEntry(tag={self.tag:#x}, conf={self.confidence.value}, "
            f"degree={self.degree_counter}/{self.max_degree}, lhb={list(self.lhb)})"
        )
