"""Prefetcher interface shared by all implementations."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List


@dataclass(slots=True)
class PrefetcherStats:
    """Prefetch issue counters (usefulness is measured at the cache)."""

    triggers: int = 0
    issued: int = 0


class Prefetcher(abc.ABC):
    """Observes the miss stream and proposes block addresses to fetch.

    The driving simulator calls :meth:`on_miss` for every demand miss and
    fetches each returned block address (deduplicated against blocks
    already resident). Prefetching applies to *all* data, approximate or
    not, exactly as in the paper's evaluation.
    """

    def __init__(self, degree: int, block_bytes: int = 64) -> None:
        self.degree = degree
        self.block_bytes = block_bytes
        self.stats = PrefetcherStats()

    @abc.abstractmethod
    def on_miss(self, pc: int, addr: int) -> List[int]:
        """React to a demand miss; return block addresses to prefetch."""

    def _record(self, candidates: List[int]) -> List[int]:
        """Clamp to the configured degree and update issue counters."""
        self.stats.triggers += 1
        issued = candidates[: self.degree]
        self.stats.issued += len(issued)
        return issued

    def block_of(self, addr: int) -> int:
        """Block-align a byte address."""
        return addr & ~(self.block_bytes - 1)
