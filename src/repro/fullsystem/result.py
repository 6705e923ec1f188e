"""The result of one full-system replay, apart from the simulator.

Serving a replay from the disk cache and rendering Figures 10 and 11
need only this record, not the timing model that produced it, so it
lives in a module that imports no simulator. :mod:`repro.fullsystem.system`
re-exports it, and cache entries pickled under that path still load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.energy.model import EnergyBreakdown
from repro.telemetry.registry import safe_ratio


@dataclass
class FullSystemResult:
    """Phase-2 metrics for one replay."""

    cycles: float
    instructions: int
    loads: int
    raw_misses: int
    covered_misses: int
    fetches: int
    l2_accesses: int
    memory_accesses: int
    noc_flit_hops: int
    approximator_accesses: int
    total_miss_latency: float
    energy: EnergyBreakdown
    #: Per-core retire times, for load-balance inspection.
    core_cycles: List[float] = field(default_factory=list)
    #: Failure message for a sweep point that exhausted its retries
    #: (None for every real replay); set only by
    #: :func:`repro.experiments.common.failed_fullsystem_result`.
    failure: Optional[str] = None

    @property
    def average_miss_latency(self) -> float:
        """Mean latency over *all* raw misses; approximated misses count as
        zero, which is exactly how the paper's 'average L1 miss latency'
        falls by 41 % under LVA."""
        return safe_ratio(self.total_miss_latency, self.raw_misses)

    @property
    def miss_edp(self) -> float:
        """Energy-delay product of L1 misses (Figure 11's metric):
        miss-path dynamic energy x average L1 miss latency."""
        return self.energy.miss_path_nj * self.average_miss_latency

    def speedup_over(self, baseline: "FullSystemResult") -> float:
        """Relative speedup versus a baseline replay (0.085 = 8.5 %)."""
        return safe_ratio(baseline.cycles, self.cycles, default=1.0) - 1.0

    def energy_savings_over(self, baseline: "FullSystemResult") -> float:
        """Fractional dynamic-energy savings versus a baseline replay."""
        return 1.0 - safe_ratio(
            self.energy.total_nj, baseline.energy.total_nj, default=1.0
        )
