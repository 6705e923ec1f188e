"""Direct tests for the cache's LRU replacement choice."""

from hypothesis import given
from hypothesis import strategies as st

from repro.mem.cache import CacheConfig, SetAssociativeCache

BLOCK = 64


def one_set(ways):
    """A cache of a single set with ``ways`` ways; block i lives at i * 64."""
    return SetAssociativeCache(
        CacheConfig(size_bytes=ways * BLOCK, associativity=ways, block_bytes=BLOCK)
    )


def cache_with_recency(uses):
    """A full single-set cache holding blocks 0..n-1, touched so that block
    i's recency rank matches ``uses[i]`` (larger = more recently used)."""
    cache = one_set(len(uses))
    for i in range(len(uses)):
        cache.fill(i * BLOCK)
    for i in sorted(range(len(uses)), key=lambda i: uses[i]):
        assert cache.probe(i * BLOCK)
    return cache


def victim(cache, resident):
    """Fill one new block into the full set; return which of blocks
    0..resident-1 it evicted."""
    cache.fill(resident * BLOCK)
    gone = [i for i in range(resident) if not cache.contains(i * BLOCK)]
    assert len(gone) == 1
    return gone[0]


class TestLRU:
    def test_picks_smallest_last_use(self):
        cache = cache_with_recency([5, 2, 9, 7])
        assert victim(cache, 4) == 1

    def test_on_hit_bumps_recency(self):
        untouched = one_set(2)
        untouched.fill(0x0)
        untouched.fill(0x40)
        assert victim(untouched, 2) == 0
        hit = one_set(2)
        hit.fill(0x0)
        hit.fill(0x40)
        assert hit.probe(0x0)
        assert victim(hit, 2) == 1

    def test_tie_breaks_to_first(self):
        # The cache clock never repeats a stamp, so a tie only arises by
        # hand; the first resident block among equals is the victim.
        cache = one_set(3)
        for i in range(3):
            cache.fill(i * BLOCK)
        for block in cache._sets[0].values():
            block.last_use = 0
        assert victim(cache, 3) == 0

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=16, unique=True))
    def test_always_minimum(self, uses):
        cache = cache_with_recency(uses)
        assert uses[victim(cache, len(uses))] == min(uses)
