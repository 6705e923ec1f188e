"""Memory-hierarchy substrate: caches, MSI coherence, DRAM timing.

These are the structures the paper's evaluation platform provides (64 KB
private L1s in the Pin phase; 16 KB L1s + 512 KB shared L2 + 1 GB memory in
the full-system phase, Table II). Everything is built from scratch: a
set-associative write-back LRU cache, an MSI directory and a banked
row-buffer DRAM model. The simulators compose them themselves: the
trace simulator owns one L1, the full-system simulator wires per-core
L1s, a distributed L2 and its own MSHR-style fetch pacing.
"""

from repro.mem.cache import CacheBlock, CacheConfig, SetAssociativeCache
from repro.mem.coherence import CoherenceState, MSIDirectory
from repro.mem.dram import DRAMConfig, DRAMModel

__all__ = [
    "CacheBlock",
    "CacheConfig",
    "CoherenceState",
    "DRAMConfig",
    "DRAMModel",
    "MSIDirectory",
    "SetAssociativeCache",
]
