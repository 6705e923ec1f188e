"""The object reference for phase-1 trace replay.

:func:`object_replay` feeds a trace's event objects one at a time through
the workload-facing :class:`~repro.sim.frontend.MemoryFrontend` API —
``advance``, ``load``/``load_approx`` and ``store``, the calls a live run
makes. It shares nothing with :meth:`TraceSimulator.replay` but the
simulator's own load/store handlers, so a replay that matches it shows
that packing a trace and unpacking its columns lose nothing.
"""

from __future__ import annotations

from repro.sim.stats import SimulationStats
from repro.sim.trace import Trace


def object_replay(sim, trace: Trace) -> SimulationStats:
    """Drive ``sim`` through ``trace`` as a live workload would; returns
    the final stats (:meth:`finish` is applied, as ``replay`` does)."""
    for event in trace.events:
        sim.advance(event.gap)
        if event.is_store:
            sim.store(event.addr, event.value)
            continue
        sim.values[event.addr] = event.value
        if event.approximable:
            sim.load_approx(event.pc, event.addr, event.is_float)
        else:
            sim.load(event.pc, event.addr)
    return sim.finish()
