"""A set-associative, write-back cache model.

Used for the 64 KB L1s of the Pin-style design-space phase and the
16 KB L1 / 512 KB L2 of the full-system phase (Table II). The cache tracks
block presence and metadata; functional data lives in the value store of
the simulation front-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.mem.block import CacheBlock
from repro.mem.replacement import LRUPolicy, ReplacementPolicy


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


@dataclass(slots=True)
class AccessResult:
    """Outcome of one cache access.

    The unremarkable outcomes (plain hit, plain miss) are returned as
    shared singleton instances so the per-load hot path allocates nothing;
    treat results as read-only.
    """

    hit: bool
    #: Block address (block-aligned byte address) of a dirty block evicted
    #: to make room, or None. Only produced by fills.
    writeback: Optional[int] = None
    #: True when the access hit a block that was prefetched and had not yet
    #: been demanded (a *useful* prefetch).
    prefetch_hit: bool = False


#: Shared results for the overwhelmingly common outcomes (see AccessResult).
_HIT = AccessResult(hit=True)
_MISS = AccessResult(hit=False)


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
    """Set-associative cache with pluggable replacement (default LRU).

    Each set is a ``tag -> CacheBlock`` dictionary, so lookups are O(1)
    rather than a way scan — the simulators probe the cache on every load,
    so this is the hottest path in the whole library.
    """

    def __init__(
        self,
        config: Optional[CacheConfig] = None,
        policy: Optional[ReplacementPolicy] = None,
        name: str = "cache",
    ) -> None:
        self.config = config or CacheConfig()
        self.policy = policy or LRUPolicy()
        self.name = name
        self.stats = CacheStats()
        self._sets: List[dict] = [{} for _ in range(self.config.num_sets)]
        self._clock = 0
        self._offset_bits = self.config.block_bytes.bit_length() - 1
        self._index_mask = self.config.num_sets - 1
        self._index_bits = self._index_mask.bit_length()
        # Plain LRU (the default) only bumps recency on a hit; inlining that
        # one store skips a virtual dispatch on the hottest path. Any other
        # policy — including an LRU subclass — goes through on_hit.
        self._plain_lru = type(self.policy) is LRUPolicy

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

    def access(self, addr: int, is_write: bool = False) -> AccessResult:
        """Probe the cache for ``addr``; updates stats and recency.

        A miss does *not* implicitly fill — the caller decides whether a
        fetch happens at all (that decoupling is the heart of the paper's
        approximation degree). Call :meth:`fill` when the block arrives.

        Plain hits and misses return shared :class:`AccessResult`
        singletons (no allocation); callers must not mutate results.
        """
        useful = self.stats.useful_prefetches
        if not self.probe(addr, is_write):
            return _MISS
        if self.stats.useful_prefetches == useful:
            return _HIT
        return AccessResult(hit=True, prefetch_hit=True)

    def probe(self, addr: int, is_write: bool = False) -> bool:
        """Boolean fast-path of :meth:`access`: same stats/recency updates,
        but returns just the hit outcome and never allocates.

        The simulators probe the L1 on every load instruction and only ever
        look at ``.hit`` — this is the hottest path in the whole library.
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
        if self._plain_lru:
            block.last_use = clock
        else:
            self.policy.on_hit(block, clock)
        if block.prefetched:
            stats.useful_prefetches += 1
            block.prefetched = False
        return True

    def contains(self, addr: int) -> bool:
        """Non-destructive presence probe (no stats, no recency update)."""
        return self._find(addr) is not None

    def fill(self, addr: int, prefetched: bool = False) -> AccessResult:
        """Install the block holding ``addr``, evicting if necessary.

        Returns an :class:`AccessResult` whose ``writeback`` carries the
        block address of any dirty victim. Filling a block already present
        is a no-op (e.g. a prefetch racing a demand fetch).
        """
        self._clock += 1
        index, tag = self._decompose(addr)
        ways = self._sets[index]
        if tag in ways:
            return _HIT
        writeback = None
        if len(ways) >= self.config.associativity:
            blocks = list(ways.values())
            victim = blocks[self.policy.victim(blocks)]
            del ways[victim.tag]
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.writebacks += 1
                writeback = self._recompose(index, victim.tag)
        block = CacheBlock(tag)
        block.fill(tag, self._clock, prefetched=prefetched)
        ways[tag] = block
        self.stats.fills += 1
        if writeback is None:
            return _MISS
        return AccessResult(hit=False, writeback=writeback)

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

    def _recompose(self, index: int, tag: int) -> int:
        return ((tag << self._index_bits) | index) << self._offset_bits

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    @property
    def resident_blocks(self) -> int:
        """Number of valid blocks currently cached."""
        return sum(len(ways) for ways in self._sets)

    def reset(self) -> None:
        """Invalidate everything and clear statistics."""
        for ways in self._sets:
            ways.clear()
        self.stats = CacheStats()
        self._clock = 0
