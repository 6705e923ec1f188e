"""Table I: precise L1 MPKI and instruction-count variation under LVA.

The paper reports, per benchmark, the L1 MPKI of precise execution and how
much the dynamic instruction count changes when load value approximation is
enabled (variation is low across all workloads because only data values —
not the algorithms — change).
"""

from __future__ import annotations

from repro.experiments.common import (
    BASELINE_WORKLOADS,
    Driver,
    ExperimentResult,
    run_precise_reference,
    run_technique,
)
from repro.sim.mode import Mode

#: The paper's Table I, for side-by-side comparison in reports.
PAPER_MPKI = {
    "blackscholes": 0.93,
    "bodytrack": 4.93,
    "canneal": 12.50,
    "ferret": 3.28,
    "fluidanimate": 1.23,
    "swaptions": 4.92e-5,
    "x264": 0.59,
}
PAPER_VARIATION = {
    "blackscholes": 0.0099,
    "bodytrack": 0.0005,
    "canneal": 0.0125,
    "ferret": 0.0060,
    "fluidanimate": 0.0017,
    "swaptions": 0.0,
    "x264": 0.0237,
}


def _render(small: bool = False, seed: int = 0) -> ExperimentResult:
    """Measure precise MPKI and LVA instruction-count variation."""
    result = ExperimentResult(
        name="Table I",
        description="precise L1 MPKI and dynamic instruction-count variation",
        meta={"paper_mpki": PAPER_MPKI, "paper_variation": PAPER_VARIATION},
    )
    for name in BASELINE_WORKLOADS:
        reference = run_precise_reference(name, seed=seed, small=small)
        lva = run_technique(name, Mode.LVA, seed=seed, small=small)
        result.add("precise_mpki", name, reference.mpki)
        result.add("instruction_variation", name, lva.instruction_variation)
        result.add("paper_mpki", name, PAPER_MPKI[name])
    return result


#: The :class:`~repro.experiments.common.Driver` for this
#: experiment — the supported entry point for programmatic use.
DRIVER = Driver(name="table1", render_fn=_render)
