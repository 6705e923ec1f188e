"""Figure 4: normalized MPKI — LVA vs idealized LVP across GHB sizes.

For GHB sizes 0, 1, 2 and 4, both the load value approximator and the
idealized predictor run over every benchmark; effective MPKI is normalized
to precise execution. The paper's findings: LVA achieves lower MPKI than
even an idealized LVP (exact predictability is not required), and MPKI
tends to *increase* with GHB size because hashing more values fragments
the approximator index, especially for floating-point data.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.config import ApproximatorConfig
from repro.experiments.common import BASELINE_WORKLOADS, Driver, ExperimentResult, run_technique
from repro.sim.mode import Mode

GHB_SIZES: Tuple[int, ...] = (0, 1, 2, 4)


def _render(small: bool = False, seed: int = 0) -> ExperimentResult:
    """Sweep GHB sizes for LVA and idealized LVP."""
    result = ExperimentResult(
        name="Figure 4",
        description="normalized MPKI, LVA vs idealized LVP, GHB in {0,1,2,4}",
        meta={
            "expectation": "LVA below LVP on average; MPKI rises with GHB size"
        },
    )
    for name in BASELINE_WORKLOADS:
        for ghb in GHB_SIZES:
            config = ApproximatorConfig(ghb_size=ghb)
            lvp = run_technique(
                name, Mode.LVP, config=config, seed=seed, small=small
            )
            lva = run_technique(
                name, Mode.LVA, config=config, seed=seed, small=small
            )
            result.add(f"LVP-GHB-{ghb}", name, lvp.normalized_mpki)
            result.add(f"LVA-GHB-{ghb}", name, lva.normalized_mpki)
    return result


#: The :class:`~repro.experiments.common.Driver` for this
#: experiment — the supported entry point for programmatic use.
DRIVER = Driver(name="fig4", render_fn=_render)
