"""Prefetcher baselines for the Figure 8 comparison.

The paper compares LVA's approximation degree against a GHB prefetcher
using local delta correlation with next-line prefetching (Nesbit & Smith,
2005), sized at 2048 GHB entries + 2048 index-table entries so its state
budget matches the 512-entry, 4-value-LHB approximator.
"""

from repro.prefetch.base import Prefetcher, PrefetcherStats
from repro.prefetch.ghb import GHBPrefetcher
from repro.prefetch.nextline import NextLinePrefetcher

__all__ = [
    "GHBPrefetcher",
    "NextLinePrefetcher",
    "Prefetcher",
    "PrefetcherStats",
]
