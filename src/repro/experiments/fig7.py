"""Figure 7: value delay — MPKI and error for delays of 4, 8, 16, 32.

Value delay means the approximator trains on stale values. LVA tolerates
it: MPKI shifts because confidence calculations skew, but output error is
essentially unaffected for every benchmark except canneal, whose <x, y>
positions are constantly swapped by the annealer so stale values really do
change the cost-function outcomes.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.config import ApproximatorConfig
from repro.experiments.common import BASELINE_WORKLOADS, Driver, ExperimentResult, run_technique
from repro.sim.mode import Mode

DELAYS: Tuple[int, ...] = (4, 8, 16, 32)


def _render(small: bool = False, seed: int = 0) -> ExperimentResult:
    """Sweep the value delay, recording MPKI and error."""
    result = ExperimentResult(
        name="Figure 7",
        description="normalized MPKI and output error vs value delay",
        meta={
            "expectation": "resilient to delay; only canneal's error moves"
        },
    )
    for name in BASELINE_WORKLOADS:
        for delay in DELAYS:
            config = ApproximatorConfig(value_delay=delay)
            lva = run_technique(
                name, Mode.LVA, config=config, seed=seed, small=small
            )
            result.add(f"mpki-delay-{delay}", name, lva.normalized_mpki)
            result.add(f"error-delay-{delay}", name, lva.output_error)
    return result


#: The :class:`~repro.experiments.common.Driver` for this
#: experiment — the supported entry point for programmatic use.
DRIVER = Driver(name="fig7", render_fn=_render)
