"""Phase-1 simulation: the Pin-substitute trace-driven front-end.

Workloads issue every memory access through a :class:`MemoryFrontend`;
the :class:`TraceSimulator` implementation models the private L1 data cache
and — exactly like the paper's Pin tool — *clobbers the return values* of
annotated loads with approximations, so application output error emerges
organically. It measures the phase-1 metrics: effective MPKI, blocks
fetched, coverage and instruction counts.

The exports resolve on first use (:mod:`repro.lazy`): naming
:class:`Mode` loads only :mod:`repro.sim.mode`, not the simulator.
"""

from typing import TYPE_CHECKING

from repro import lazy

if TYPE_CHECKING:
    from repro.sim.frontend import AddressSpace, MemoryFrontend, PreciseMemory, Region
    from repro.sim.mode import Mode
    from repro.sim.stats import SimulationStats
    from repro.sim.trace import LoadEvent, PackedTrace, Trace, TraceRecorder
    from repro.sim.tracesim import TraceSimulator

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

#: The names of ``__all__`` by defining module.
_EXPORTS = {
    "repro.sim.frontend": ("AddressSpace", "MemoryFrontend", "PreciseMemory", "Region"),
    "repro.sim.mode": ("Mode",),
    "repro.sim.stats": ("SimulationStats",),
    "repro.sim.trace": ("LoadEvent", "PackedTrace", "Trace", "TraceRecorder"),
    "repro.sim.tracesim": ("TraceSimulator",),
}

__getattr__, __dir__ = lazy.attach(__name__, _EXPORTS)
