"""Figure 11: L1-miss energy-delay product across approximation degrees.

EDP combines the miss-path dynamic energy with the average L1 miss
latency, normalized to precise execution. The paper reports average L1
miss EDP reductions of 41.9 %, 53.8 % and 63.8 % at degrees 0, 4 and 16
(normalized EDP 0.58, 0.46, 0.36) — performance *and* energy improve
together, which neither prefetching nor LVP can do.
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
    """Replay each workload full-system, measuring normalized L1-miss EDP."""
    result = ExperimentResult(
        name="Figure 11",
        description="normalized L1-miss EDP vs approximation degree",
        meta={"paper_normalized_edp": {0: 0.581, 4: 0.462, 16: 0.362}},
    )
    for name in BASELINE_WORKLOADS:
        baseline = run_fullsystem_point(name, seed=seed, small=small)
        baseline_edp = baseline.miss_edp
        for degree in DEGREES:
            lva = run_fullsystem_point(
                name,
                approximate=True,
                approximator=_config(degree),
                seed=seed,
                small=small,
            )
            normalized = lva.miss_edp / baseline_edp if baseline_edp else 0.0
            result.add(f"approx-{degree}", name, normalized)
    return result


#: The :class:`~repro.experiments.common.Driver` for this
#: experiment — the supported entry point for programmatic use.
DRIVER = Driver(name="fig11", render_fn=_render)
