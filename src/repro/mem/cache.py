"""A set-associative, write-back LRU cache model.

Used for the 64 KB L1s of the Pin-style design-space phase and the
16 KB L1 / 512 KB L2 of the full-system phase (Table II). The cache tracks
block presence and metadata; functional data lives in the value store of
the simulation front-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Geometry and latency of one cache level.

    Attributes:
        size_bytes: Total capacity. Must be divisible by
            ``block_bytes * associativity``.
        associativity: Ways per set (1 = direct mapped).
        block_bytes: Cache line size; the paper uses 64 B throughout.
        latency: Access latency in cycles (1 for L1, 6 for L2 in Table II).
    """

    size_bytes: int = 64 * 1024
    associativity: int = 8
    block_bytes: int = 64
    latency: int = 1

    def __post_init__(self) -> None:
        if self.block_bytes <= 0 or self.block_bytes & (self.block_bytes - 1):
            raise ConfigurationError("block_bytes must be a positive power of two")
        if self.associativity < 1:
            raise ConfigurationError("associativity must be >= 1")
        if self.size_bytes < self.block_bytes * self.associativity:
            raise ConfigurationError("cache smaller than one set")
        sets = self.size_bytes // (self.block_bytes * self.associativity)
        if sets * self.block_bytes * self.associativity != self.size_bytes:
            raise ConfigurationError("size must be a whole number of sets")
        if sets & (sets - 1):
            raise ConfigurationError("number of sets must be a power of two")
        if self.latency < 0:
            raise ConfigurationError("latency must be >= 0")

    @property
    def num_sets(self) -> int:
        """Number of sets = size / (block * ways)."""
        return self.size_bytes // (self.block_bytes * self.associativity)


class CacheBlock:
    """One resident cache block's bookkeeping state.

    The simulators track presence and metadata only; data values live in
    the workload-facing value store (:mod:`repro.sim.frontend`), mirroring
    how a trace-driven timing simulator separates timing from functional
    state. A block object exists only while its block is resident.
    """

    __slots__ = ("tag", "dirty", "last_use", "prefetched")

    def __init__(self, tag: int, now: int, prefetched: bool = False) -> None:
        self.tag = tag
        self.dirty = False
        #: Cache clock of the last fill or hit; the LRU victim is the
        #: resident block with the smallest value.
        self.last_use = now
        #: Set when the block was brought in by a prefetch and not yet
        #: demanded; used to measure useful vs. useless prefetches.
        self.prefetched = prefetched

    def __repr__(self) -> str:
        return f"CacheBlock(tag={self.tag:#x}, dirty={self.dirty}, last_use={self.last_use})"


@dataclass(slots=True)
class CacheStats:
    """Per-cache event counters."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations: int = 0
    useful_prefetches: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses / accesses (0 when never accessed)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def as_dict(self) -> dict:
        """Plain-dict view, handy for reports."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "fills": self.fills,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "invalidations": self.invalidations,
            "useful_prefetches": self.useful_prefetches,
            "miss_rate": self.miss_rate,
        }


class SetAssociativeCache:
    """Set-associative write-back cache with LRU replacement.

    Each set is a ``tag -> CacheBlock`` dictionary, so lookups are O(1)
    rather than a way scan — the simulators probe the cache on every load,
    so this is the hottest path in the whole library. Every probe and fill
    advances a per-cache clock; a hit or fill stamps the block with it, and
    a fill into a full set evicts the block with the oldest stamp.
    """

    def __init__(self, config: Optional[CacheConfig] = None, name: str = "cache") -> None:
        self.config = config or CacheConfig()
        self.name = name
        self.stats = CacheStats()
        self._sets: List[dict] = [{} for _ in range(self.config.num_sets)]
        self._clock = 0
        self._offset_bits = self.config.block_bytes.bit_length() - 1
        self._index_mask = self.config.num_sets - 1
        self._index_bits = self._index_mask.bit_length()

    # ------------------------------------------------------------------ #
    # Address helpers                                                    #
    # ------------------------------------------------------------------ #

    def block_address(self, addr: int) -> int:
        """Block-aligned byte address containing ``addr``."""
        return addr & ~(self.config.block_bytes - 1)

    def _decompose(self, addr: int) -> tuple:
        block = addr >> self._offset_bits
        return block & self._index_mask, block >> self._index_bits

    def _find(self, addr: int) -> Optional[CacheBlock]:
        block = addr >> self._offset_bits
        return self._sets[block & self._index_mask].get(block >> self._index_bits)

    # ------------------------------------------------------------------ #
    # Accesses                                                           #
    # ------------------------------------------------------------------ #

    def probe(self, addr: int, is_write: bool = False) -> bool:
        """Access ``addr``; returns True on a hit. Updates stats and recency.

        A miss does *not* implicitly fill — the caller decides whether a
        fetch happens at all (that decoupling is the heart of the paper's
        approximation degree). Call :meth:`fill` when the block arrives.
        The first demand hit on a prefetched block counts one useful
        prefetch.
        """
        clock = self._clock + 1
        self._clock = clock
        stats = self.stats
        stats.accesses += 1
        block_bits = addr >> self._offset_bits
        block = self._sets[block_bits & self._index_mask].get(
            block_bits >> self._index_bits
        )
        if block is None:
            stats.misses += 1
            return False
        stats.hits += 1
        if is_write:
            block.dirty = True
        block.last_use = clock
        if block.prefetched:
            stats.useful_prefetches += 1
            block.prefetched = False
        return True

    def contains(self, addr: int) -> bool:
        """Non-destructive presence probe (no stats, no recency update)."""
        return self._find(addr) is not None

    def fill(self, addr: int, prefetched: bool = False) -> None:
        """Install the block holding ``addr``, evicting the least recently
        used block of a full set (a dirty victim counts one writeback).

        Filling a block already present only advances the clock (e.g. a
        prefetch racing a demand fetch).
        """
        clock = self._clock + 1
        self._clock = clock
        block_bits = addr >> self._offset_bits
        ways = self._sets[block_bits & self._index_mask]
        tag = block_bits >> self._index_bits
        if tag in ways:
            return
        stats = self.stats
        if len(ways) >= self.config.associativity:
            # Every resident block was stamped before this tick, so the
            # loop always binds the victim: the first block with the
            # smallest stamp.
            oldest = clock
            for block in ways.values():
                if block.last_use < oldest:
                    victim = block
                    oldest = block.last_use
            del ways[victim.tag]
            stats.evictions += 1
            if victim.dirty:
                stats.writebacks += 1
        ways[tag] = CacheBlock(tag, clock, prefetched)
        stats.fills += 1

    def invalidate(self, addr: int) -> bool:
        """Drop the block holding ``addr`` if present (coherence)."""
        index, tag = self._decompose(addr)
        if tag not in self._sets[index]:
            return False
        del self._sets[index][tag]
        self.stats.invalidations += 1
        return True

    def invalidate_range(self, start: int, stop: int) -> int:
        """Drop every block holding a byte of ``[start, stop)``; returns
        how many were resident.

        The same as :meth:`invalidate` on one address of each block, in
        address order, with one set lookup per block.
        """
        if stop <= start:
            return 0
        offset_bits = self._offset_bits
        index_mask = self._index_mask
        index_bits = self._index_bits
        sets = self._sets
        dropped = 0
        for block in range(start >> offset_bits, ((stop - 1) >> offset_bits) + 1):
            if sets[block & index_mask].pop(block >> index_bits, None) is not None:
                dropped += 1
        self.stats.invalidations += dropped
        return dropped

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    @property
    def resident_blocks(self) -> int:
        """Number of blocks currently cached."""
        return sum(len(ways) for ways in self._sets)

    def reset(self) -> None:
        """Invalidate everything and clear statistics."""
        for ways in self._sets:
            ways.clear()
        self.stats = CacheStats()
        self._clock = 0
