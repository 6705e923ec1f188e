"""Figure 9: LVA output error across approximation degrees.

Higher degree means less frequent training (one fetch per degree+1
misses), so approximations grow staler and error rises with degree —
the energy-error trade-off's cost side.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.config import ApproximatorConfig
from repro.experiments.common import BASELINE_WORKLOADS, Driver, ExperimentResult, run_technique
from repro.sim.mode import Mode

DEGREES: Tuple[int, ...] = (0, 2, 4, 8, 16)


def _render(small: bool = False, seed: int = 0) -> ExperimentResult:
    """Sweep the approximation degree, measuring output error."""
    result = ExperimentResult(
        name="Figure 9",
        description="LVA output error for approximation degrees {0,2,4,8,16}",
        meta={"expectation": "error generally rises with degree"},
    )
    for name in BASELINE_WORKLOADS:
        for degree in DEGREES:
            config = ApproximatorConfig(approximation_degree=degree)
            lva = run_technique(
                name, Mode.LVA, config=config, seed=seed, small=small
            )
            result.add(f"approx-{degree}", name, lva.output_error)
    return result


#: The :class:`~repro.experiments.common.Driver` for this
#: experiment — the supported entry point for programmatic use.
DRIVER = Driver(name="fig9", render_fn=_render)
