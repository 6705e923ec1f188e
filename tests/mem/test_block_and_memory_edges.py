"""Remaining small cache edges: index/tag round trip, writeback counting
and block alignment."""

import pytest

from repro.mem.cache import CacheConfig, SetAssociativeCache


class TestRecompose:
    def test_writeback_address_is_block_aligned_original(self):
        """A dirty eviction removes exactly the victim's block-aligned block
        (index+tag round trip) and counts one writeback; evicting the clean
        block that replaced it counts none."""
        cache = SetAssociativeCache(
            CacheConfig(size_bytes=4 * 64, associativity=1, block_bytes=64)
        )
        victim_addr = 0x12340  # block-aligned
        cache.fill(victim_addr + 0x1C)
        assert cache.probe(victim_addr + 0x3F, is_write=True)
        # Next fill maps to the same set (same index bits) and evicts it.
        conflicting = victim_addr + 4 * 64
        cache.fill(conflicting)
        assert not cache.contains(victim_addr)
        assert not cache.contains(victim_addr + 0x3F)
        assert cache.contains(conflicting)
        assert (cache.stats.evictions, cache.stats.writebacks) == (1, 1)
        cache.fill(victim_addr)
        assert (cache.stats.evictions, cache.stats.writebacks) == (2, 1)

    @pytest.mark.parametrize("addr", [0x0, 0x1FC0, 0xABCDE40, 0x7FFFFFC0])
    def test_roundtrip_many_addresses(self, addr):
        cache = SetAssociativeCache(
            CacheConfig(size_bytes=2 * 64, associativity=1, block_bytes=64)
        )
        cache.fill(addr)
        assert cache.probe(addr, is_write=True)
        cache.fill(addr + 2 * 64)
        assert not cache.contains(cache.block_address(addr))
        assert cache.contains(addr + 2 * 64)
        assert cache.stats.writebacks == 1
        # The block address names the same block as the address itself.
        cache.fill(cache.block_address(addr))
        assert cache.probe(addr)


class TestBlockAddressHelper:
    def test_alignment(self):
        cache = SetAssociativeCache(CacheConfig())
        assert cache.block_address(0x1039) == 0x1000
        assert cache.block_address(0x1000) == 0x1000
        assert cache.block_address(0x103F) == 0x1000
        assert cache.block_address(0x1040) == 0x1040
