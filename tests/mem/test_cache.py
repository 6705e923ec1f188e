"""Tests for the set-associative cache model."""

import dataclasses
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.mem.cache import CacheConfig, SetAssociativeCache


def small_cache(assoc=2, sets=4, block=64):
    return SetAssociativeCache(
        CacheConfig(size_bytes=assoc * sets * block, associativity=assoc, block_bytes=block)
    )


class TestConfig:
    def test_paper_phase1_l1(self):
        cfg = CacheConfig(size_bytes=64 * 1024, associativity=8, block_bytes=64)
        assert cfg.num_sets == 128

    def test_paper_phase2_l1(self):
        cfg = CacheConfig(size_bytes=16 * 1024, associativity=8, block_bytes=64)
        assert cfg.num_sets == 32

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(block_bytes=48)

    def test_cache_smaller_than_set_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=64, associativity=4, block_bytes=64)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=3 * 64 * 2, associativity=2, block_bytes=64)


class TestAccess:
    def test_cold_miss_then_hit_after_fill(self):
        cache = small_cache()
        assert not cache.probe(0x1000)
        cache.fill(0x1000)
        assert cache.probe(0x1000)

    def test_miss_does_not_implicitly_fill(self):
        # The fetch decoupling at the heart of approximation degree.
        cache = small_cache()
        cache.probe(0x1000)
        assert not cache.probe(0x1000)

    def test_same_block_different_offset_hits(self):
        cache = small_cache()
        cache.fill(0x1000)
        assert cache.probe(0x1008)
        assert cache.probe(0x103F)

    def test_adjacent_block_misses(self):
        cache = small_cache()
        cache.fill(0x1000)
        assert not cache.probe(0x1040)

    def test_write_sets_dirty_and_eviction_reports_writeback(self):
        cache = small_cache(assoc=1, sets=1)
        cache.fill(0x0)
        cache.probe(0x0, is_write=True)
        cache.fill(0x40)  # evicts the dirty block
        assert cache.stats.evictions == 1
        assert cache.stats.writebacks == 1

    def test_clean_eviction_has_no_writeback(self):
        cache = small_cache(assoc=1, sets=1)
        cache.fill(0x0)
        cache.fill(0x40)
        assert cache.stats.evictions == 1
        assert cache.stats.writebacks == 0

    def test_fill_existing_block_is_noop(self):
        cache = small_cache()
        cache.fill(0x1000)
        cache.fill(0x1000)
        assert cache.resident_blocks == 1

    def test_invalidate(self):
        cache = small_cache()
        cache.fill(0x1000)
        assert cache.invalidate(0x1000)
        assert not cache.probe(0x1000)
        assert not cache.invalidate(0x1000)

    def test_contains_does_not_touch_stats(self):
        cache = small_cache()
        cache.fill(0x1000)
        before = cache.stats.accesses
        cache.contains(0x1000)
        assert cache.stats.accesses == before


class TestLRU:
    def test_lru_evicts_least_recent(self):
        cache = small_cache(assoc=2, sets=1)
        cache.fill(0x0)
        cache.fill(0x40)
        cache.probe(0x0)           # 0x0 is now most recent
        cache.fill(0x80)           # evicts 0x40
        assert cache.probe(0x0)
        assert not cache.probe(0x40)


class TestPrefetchTracking:
    def test_prefetch_hit_counted_once(self):
        cache = small_cache()
        cache.fill(0x1000, prefetched=True)
        assert cache.probe(0x1000)
        assert cache.stats.useful_prefetches == 1
        assert cache.probe(0x1000)
        assert cache.stats.useful_prefetches == 1


class TestStats:
    def test_miss_rate(self):
        cache = small_cache()
        cache.probe(0x0)
        cache.fill(0x0)
        cache.probe(0x0)
        assert cache.stats.miss_rate == pytest.approx(0.5)

    def test_reset(self):
        cache = small_cache()
        cache.fill(0x0)
        cache.probe(0x0)
        cache.reset()
        assert cache.stats.accesses == 0
        assert cache.resident_blocks == 0


class TestProperties:
    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=200))
    def test_capacity_never_exceeded(self, addrs):
        cache = small_cache(assoc=2, sets=4)
        for addr in addrs:
            if not cache.probe(addr):
                cache.fill(addr)
        assert cache.resident_blocks <= 8

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 0xFFF), min_size=1, max_size=100))
    def test_hits_plus_misses_equals_accesses(self, addrs):
        cache = small_cache()
        for addr in addrs:
            if not cache.probe(addr):
                cache.fill(addr)
        assert cache.stats.hits + cache.stats.misses == cache.stats.accesses

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 0x1FFF), min_size=1, max_size=100))
    def test_immediate_refetch_always_hits(self, addrs):
        cache = small_cache()
        for addr in addrs:
            cache.fill(addr)
            assert cache.probe(addr)


BLOCK = 64


class ReferenceLRU:
    """An LRU cache written from the definition, sharing no code with the
    model: each set is an ``OrderedDict`` of tag -> ``[dirty, prefetched]``,
    least recently used first."""

    def __init__(self, num_sets, ways):
        self.num_sets = num_sets
        self.ways = ways
        self.sets = [OrderedDict() for _ in range(num_sets)]
        self.counts = dict.fromkeys(
            ("accesses", "hits", "misses", "fills", "evictions", "writebacks",
             "invalidations", "useful_prefetches"),
            0,
        )

    def _locate(self, block):
        return self.sets[block % self.num_sets], block // self.num_sets

    def probe(self, addr, is_write):
        lines, tag = self._locate(addr // BLOCK)
        self.counts["accesses"] += 1
        if tag not in lines:
            self.counts["misses"] += 1
            return False
        self.counts["hits"] += 1
        lines.move_to_end(tag)
        line = lines[tag]
        line[0] = line[0] or is_write
        if line[1]:
            self.counts["useful_prefetches"] += 1
            line[1] = False
        return True

    def fill(self, addr, prefetched):
        lines, tag = self._locate(addr // BLOCK)
        if tag in lines:
            return
        if len(lines) == self.ways:
            _, (dirty, _) = lines.popitem(last=False)
            self.counts["evictions"] += 1
            self.counts["writebacks"] += int(dirty)
        lines[tag] = [False, prefetched]
        self.counts["fills"] += 1

    def contains(self, addr):
        lines, tag = self._locate(addr // BLOCK)
        return tag in lines

    def invalidate_range(self, start, stop):
        dropped = 0
        for block in {addr // BLOCK for addr in range(start, stop)}:
            lines, tag = self._locate(block)
            if lines.pop(tag, None) is not None:
                dropped += 1
        self.counts["invalidations"] += dropped
        return dropped


#: Writes and fills carry extra weight: eviction, writeback and prefetch
#: bookkeeping only show up once sets fill with dirty and prefetched blocks.
OPS = ("probe", "write", "write", "fill", "fill", "fill", "prefetch", "prefetch",
       "contains", "invalidate", "range")


def apply(cache, ref, op, addr, span, end_offset):
    if op in ("probe", "write"):
        return cache.probe(addr, op == "write"), ref.probe(addr, op == "write")
    if op in ("fill", "prefetch"):
        cache.fill(addr, op == "prefetch")
        ref.fill(addr, op == "prefetch")
        return None, None
    if op == "contains":
        return cache.contains(addr), ref.contains(addr)
    if op == "invalidate":
        return cache.invalidate(addr), ref.invalidate_range(addr, addr + 1) == 1
    stop = (addr // BLOCK + span - 1) * BLOCK + end_offset + 1
    return cache.invalidate_range(addr, stop), ref.invalidate_range(addr, stop)


#: (operation, block 0-7, byte offset, range span in blocks, range end offset).
OP = st.tuples(
    st.sampled_from(OPS),
    st.integers(0, 7),
    st.integers(0, BLOCK - 1),
    st.integers(1, 4),
    st.integers(0, BLOCK - 1),
)


class TestAgainstReferenceLRU:
    @settings(max_examples=200)
    @given(
        st.sampled_from([(1, 4), (2, 2), (4, 1)]),
        # A uniform length: plain st.lists averages about six operations,
        # too few to fill a set with dirty blocks and then evict them.
        st.integers(1, 60).flatmap(lambda n: st.lists(OP, min_size=n, max_size=n)),
    )
    def test_matches_reference_after_every_operation(self, geometry, ops):
        num_sets, ways = geometry
        cache = SetAssociativeCache(
            CacheConfig(size_bytes=num_sets * ways * BLOCK, associativity=ways, block_bytes=BLOCK)
        )
        ref = ReferenceLRU(num_sets, ways)
        for op, block, offset, span, end_offset in ops:
            got, expected = apply(cache, ref, op, block * BLOCK + offset, span, end_offset)
            assert got == expected, op
            assert dataclasses.asdict(cache.stats) == ref.counts, op
            for ways_now, lines in zip(cache._sets, ref.sets):
                by_recency = sorted(ways_now.values(), key=lambda b: b.last_use)
                assert [(b.tag, b.dirty, b.prefetched) for b in by_recency] == [
                    (tag, dirty, prefetched) for tag, (dirty, prefetched) in lines.items()
                ], op
