"""The phase-1 technique selector, apart from the simulator that runs it.

Declaring and keying a sweep point names a :class:`Mode`; only computing
the point needs :class:`~repro.sim.tracesim.TraceSimulator`. Keeping the
enum in a module that imports nothing else lets the experiment drivers,
the disk cache and the sweep engine name a mode without loading the
simulator. :mod:`repro.sim.tracesim` re-exports it.
"""

from __future__ import annotations

import enum


class Mode(enum.Enum):
    """Which technique observes the L1 miss stream."""

    PRECISE = "precise"
    LVA = "lva"
    LVP = "lvp"
    PREFETCH = "prefetch"
    #: Registry-resolved predictor (config.predictor / REPRO_PREDICTOR).
    PREDICTOR = "predictor"
