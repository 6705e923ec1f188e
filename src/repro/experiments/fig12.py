"""Figure 12: number of static (distinct) PCs of approximate loads.

Because only annotated data is approximated, the number of static load
instructions reaching the approximator is small — at most ~300 (x264) in
the paper — which is why a PC-only index (GHB 0) works and why even much
smaller approximator tables suffice (Section VII-A).
"""

from __future__ import annotations

from repro.experiments.common import BASELINE_WORKLOADS, Driver, ExperimentResult, run_technique
from repro.sim.mode import Mode


def _render(small: bool = False, seed: int = 0) -> ExperimentResult:
    """Count distinct approximate-load PCs per benchmark."""
    result = ExperimentResult(
        name="Figure 12",
        description="static (distinct) PC count of approximate loads",
        meta={"expectation": "small counts; x264 the largest"},
    )
    for name in BASELINE_WORKLOADS:
        lva = run_technique(name, Mode.LVA, seed=seed, small=small)
        result.add("static_approx_pcs", name, float(lva.static_approx_pcs))
    return result


#: The :class:`~repro.experiments.common.Driver` for this
#: experiment — the supported entry point for programmatic use.
DRIVER = Driver(name="fig12", render_fn=_render)
