"""Figure 13: floating-point precision loss vs MPKI (fluidanimate).

With a GHB of size 2, full-precision floats hash tiny value differences
into different approximator entries, destroying coverage. Dropping
low-order single-precision mantissa bits before hashing (Section VII-B)
restores approximate value locality: MPKI falls as more bits are removed.
Confidence is disabled, as in the paper, to isolate the hashing effect.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.config import ApproximatorConfig
from repro.experiments.common import Driver, ExperimentResult, run_technique
from repro.sim.mode import Mode

PRECISION_LOSS_BITS: Tuple[int, ...] = (0, 5, 11, 17, 23)
WORKLOAD = "fluidanimate"


def _config(bits: int) -> ApproximatorConfig:
    return ApproximatorConfig(
        ghb_size=2,
        mantissa_drop_bits=bits,
        apply_confidence_to_floats=False,
        apply_confidence_to_ints=False,
    )


def _render(small: bool = False, seed: int = 0) -> ExperimentResult:
    """Sweep mantissa truncation for fluidanimate at GHB size 2."""
    result = ExperimentResult(
        name="Figure 13",
        description="fluidanimate normalized MPKI vs mantissa bits dropped (GHB 2)",
        meta={"expectation": "MPKI falls as precision loss grows"},
    )
    for bits in PRECISION_LOSS_BITS:
        lva = run_technique(WORKLOAD, Mode.LVA, config=_config(bits), seed=seed, small=small)
        result.add("normalized_mpki", f"drop-{bits}", lva.normalized_mpki)
        result.add("output_error", f"drop-{bits}", lva.output_error)
    return result


#: The :class:`~repro.experiments.common.Driver` for this
#: experiment — the supported entry point for programmatic use.
DRIVER = Driver(name="fig13", render_fn=_render)
