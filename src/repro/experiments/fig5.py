"""Figure 5: output error of LVA across GHB sizes.

Output error is around or below 10 % for every application except ferret,
whose error metric is pessimistic (Section IV-A); swaptions and x264 sit
near zero. Larger GHBs can *raise* error for workloads whose hashed value
patterns correlate several distinct properties (fluidanimate).
"""

from __future__ import annotations


from repro.core.config import ApproximatorConfig
from repro.experiments.common import BASELINE_WORKLOADS, Driver, ExperimentResult, run_technique
from repro.experiments.fig4 import GHB_SIZES
from repro.sim.mode import Mode


def _render(small: bool = False, seed: int = 0) -> ExperimentResult:
    """Sweep GHB sizes, measuring application output error under LVA."""
    result = ExperimentResult(
        name="Figure 5",
        description="LVA output error for GHB sizes {0,1,2,4}",
        meta={"expectation": "error near or below 10% except ferret"},
    )
    for name in BASELINE_WORKLOADS:
        for ghb in GHB_SIZES:
            config = ApproximatorConfig(ghb_size=ghb)
            lva = run_technique(
                name, Mode.LVA, config=config, seed=seed, small=small
            )
            result.add(f"GHB-{ghb}", name, lva.output_error)
    return result


#: The :class:`~repro.experiments.common.Driver` for this
#: experiment — the supported entry point for programmatic use.
DRIVER = Driver(name="fig5", render_fn=_render)
