"""Phase-2: full-system multiprocessor simulation (the FeS2 substitute).

Replays the 4-thread load traces captured in phase 1 through a timing model
of the Table II system: four 4-wide OoO cores with private 16 KB L1s, a
512 KB shared L2 distributed over a 2x2 mesh (3-cycle routers), 160-cycle
main memory and a per-core load value approximator. Reports the phase-2
metrics of Section VI-E: speedup, interconnect traffic, L1 miss latency,
dynamic energy savings and L1-miss EDP.

The exports resolve on first use (:mod:`repro.lazy`): reading a cached
:class:`FullSystemResult` loads only :mod:`repro.fullsystem.result`, not
the simulator.
"""

from typing import TYPE_CHECKING

from repro import lazy

if TYPE_CHECKING:
    from repro.fullsystem.config import FullSystemConfig
    from repro.fullsystem.result import FullSystemResult
    from repro.fullsystem.system import FullSystemSimulator

__all__ = ["FullSystemConfig", "FullSystemResult", "FullSystemSimulator"]

#: The names of ``__all__`` by defining module.
_EXPORTS = {
    "repro.fullsystem.config": ("FullSystemConfig",),
    "repro.fullsystem.result": ("FullSystemResult",),
    "repro.fullsystem.system": ("FullSystemSimulator",),
}

__getattr__, __dir__ = lazy.attach(__name__, _EXPORTS)
