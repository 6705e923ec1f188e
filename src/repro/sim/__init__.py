"""Phase-1 simulation: the Pin-substitute trace-driven front-end.

Workloads issue every memory access through a :class:`MemoryFrontend`;
the :class:`TraceSimulator` implementation models the private L1 data cache
and — exactly like the paper's Pin tool — *clobbers the return values* of
annotated loads with approximations, so application output error emerges
organically. It measures the phase-1 metrics: effective MPKI, blocks
fetched, coverage and instruction counts.
"""

from repro.sim.frontend import AddressSpace, MemoryFrontend, PreciseMemory, Region
from repro.sim.stats import SimulationStats
from repro.sim.trace import LoadEvent, PackedTrace, Trace, TraceRecorder
from repro.sim.tracesim import Mode, TraceSimulator

__all__ = [
    "AddressSpace",
    "LoadEvent",
    "MemoryFrontend",
    "Mode",
    "PackedTrace",
    "PreciseMemory",
    "Region",
    "SimulationStats",
    "Trace",
    "TraceRecorder",
    "TraceSimulator",
]
