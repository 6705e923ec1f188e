"""Figure 10: full-system performance and energy vs approximation degree.

Phase-2 replays (Section VI-E): the captured 4-thread traces run through
the Table II platform precisely and with LVA at degrees 0, 2, 4, 8 and 16.
The paper's headline: 8.5 % average speedup (28.6 % for canneal, 13.3 %
for bodytrack) at degree 0, with energy savings growing with degree (7.2 %
at 4, 12.6 % at 16, up to 44.1 % for bodytrack).
"""

from __future__ import annotations

from typing import Tuple

from repro.core.config import ApproximatorConfig
from repro.experiments.common import (
    BASELINE_WORKLOADS,
    Driver,
    ExperimentResult,
    run_fullsystem_point,
)

DEGREES: Tuple[int, ...] = (0, 2, 4, 8, 16)


def _config(degree: int) -> ApproximatorConfig:
    return ApproximatorConfig(approximation_degree=degree)


def _render(small: bool = False, seed: int = 0) -> ExperimentResult:
    """Replay each workload full-system, sweeping approximation degree."""
    result = ExperimentResult(
        name="Figure 10",
        description="full-system speedup and dynamic energy savings vs degree",
        meta={
            "paper_average_speedup": 0.085,
            "paper_energy_savings": {"degree4": 0.072, "degree16": 0.126},
        },
    )
    for name in BASELINE_WORKLOADS:
        baseline = run_fullsystem_point(name, seed=seed, small=small)
        for degree in DEGREES:
            lva = run_fullsystem_point(
                name,
                approximate=True,
                approximator=_config(degree),
                seed=seed,
                small=small,
            )
            result.add(f"speedup-approx-{degree}", name, lva.speedup_over(baseline))
            result.add(
                f"energy-approx-{degree}", name, lva.energy_savings_over(baseline)
            )
        result.add("baseline-miss-latency", name, baseline.average_miss_latency)
    return result


#: The :class:`~repro.experiments.common.Driver` for this
#: experiment — the supported entry point for programmatic use.
DRIVER = Driver(name="fig10", render_fn=_render)
