"""Ablation studies for the design choices the paper calls out.

Beyond the published figures, these sweeps isolate individual design
decisions of the baseline approximator:

* ``ablate-table-size``       — Section VII-A argues even much smaller
  tables work because so few static loads are annotated (Figure 12);
* ``ablate-lhb-size``         — how much local history the average needs;
* ``ablate-compute-fn``       — the paper "tried different LHB functions
  such as strides and deltas and found average to be most accurate";
* ``ablate-int-confidence``   — the baseline exempts integer data from
  confidence (Section VI-B); this quantifies that choice;
* ``ablate-confidence-steps`` — the variable-step confidence updates
  Section III-B defers to future work, implemented in
  :func:`repro.core.confidence.confidence_update_steps`.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.config import ApproximatorConfig
from repro.core.functions import COMPUTE_FUNCTIONS
from repro.experiments.common import BASELINE_WORKLOADS, Driver, ExperimentResult, run_technique
from repro.sim.mode import Mode

TABLE_SIZES: Tuple[int, ...] = (32, 64, 128, 256, 512)
LHB_SIZES: Tuple[int, ...] = (1, 2, 4, 8)
CONFIDENCE_STEPS: Tuple[int, ...] = (1, 2, 4)
#: Benchmarks with integer-typed annotated data (Section IV-A).
INT_WORKLOADS: Tuple[str, ...] = ("bodytrack", "canneal", "x264")


def _table_size(small: bool = False, seed: int = 0) -> ExperimentResult:
    """Sweep the approximator table size (Section VII-A)."""
    result = ExperimentResult(
        name="Ablation: table size",
        description="normalized MPKI vs approximator table entries",
        meta={"expectation": "small tables nearly match 512 entries"},
    )
    for name in BASELINE_WORKLOADS:
        for entries in TABLE_SIZES:
            config = ApproximatorConfig(table_entries=entries)
            lva = run_technique(name, Mode.LVA, config=config, seed=seed, small=small)
            result.add(f"entries-{entries}", name, lva.normalized_mpki)
    return result


def _lhb_size(small: bool = False, seed: int = 0) -> ExperimentResult:
    """Sweep the local-history depth feeding the AVERAGE function."""
    result = ExperimentResult(
        name="Ablation: LHB size",
        description="normalized MPKI and error vs LHB entries",
    )
    for name in BASELINE_WORKLOADS:
        for size in LHB_SIZES:
            config = ApproximatorConfig(lhb_size=size)
            lva = run_technique(name, Mode.LVA, config=config, seed=seed, small=small)
            result.add(f"mpki-lhb-{size}", name, lva.normalized_mpki)
            result.add(f"error-lhb-{size}", name, lva.output_error)
    return result


def _compute_function(small: bool = False, seed: int = 0) -> ExperimentResult:
    """Compare the LHB computation functions f (Section III-A)."""
    result = ExperimentResult(
        name="Ablation: computation function",
        description="normalized MPKI and error per f(LHB)",
        meta={"expectation": "average is the most accurate overall"},
    )
    for name in BASELINE_WORKLOADS:
        for fn in sorted(COMPUTE_FUNCTIONS):
            config = ApproximatorConfig(compute_fn=fn)
            lva = run_technique(name, Mode.LVA, config=config, seed=seed, small=small)
            result.add(f"mpki-{fn}", name, lva.normalized_mpki)
            result.add(f"error-{fn}", name, lva.output_error)
    return result


def _int_confidence(small: bool = False, seed: int = 0) -> ExperimentResult:
    """Quantify the baseline's integer-confidence exemption (Section VI-B)."""
    result = ExperimentResult(
        name="Ablation: integer confidence",
        description="integer benchmarks with/without confidence gating",
        meta={"workloads": list(INT_WORKLOADS)},
    )
    for name in INT_WORKLOADS:
        off = run_technique(
            name,
            Mode.LVA,
            config=ApproximatorConfig(apply_confidence_to_ints=False),
            seed=seed,
            small=small,
        )
        on = run_technique(
            name,
            Mode.LVA,
            config=ApproximatorConfig(apply_confidence_to_ints=True),
            seed=seed,
            small=small,
        )
        result.add("mpki-no-confidence", name, off.normalized_mpki)
        result.add("mpki-confidence", name, on.normalized_mpki)
        result.add("error-no-confidence", name, off.output_error)
        result.add("error-confidence", name, on.output_error)
    return result


def _confidence_steps(small: bool = False, seed: int = 0) -> ExperimentResult:
    """Variable-step confidence updates (the paper's deferred optimisation).

    Confidence gating is enabled for both datatypes so the step size can
    actually influence coverage everywhere.
    """
    result = ExperimentResult(
        name="Ablation: confidence step",
        description="normalized MPKI and error vs max confidence step",
    )
    for name in BASELINE_WORKLOADS:
        for step in CONFIDENCE_STEPS:
            config = ApproximatorConfig(
                confidence_step_max=step,
                apply_confidence_to_ints=True,
                apply_confidence_to_floats=True,
            )
            lva = run_technique(name, Mode.LVA, config=config, seed=seed, small=small)
            result.add(f"mpki-step-{step}", name, lva.normalized_mpki)
            result.add(f"error-step-{step}", name, lva.output_error)
    return result


#: One :class:`~repro.experiments.common.Driver` per ablation.
DRIVERS = {
    "ablate-table-size": Driver(name="ablate-table-size", render_fn=_table_size),
    "ablate-lhb-size": Driver(name="ablate-lhb-size", render_fn=_lhb_size),
    "ablate-compute-fn": Driver(name="ablate-compute-fn", render_fn=_compute_function),
    "ablate-int-confidence": Driver(name="ablate-int-confidence", render_fn=_int_confidence),
    "ablate-confidence-steps": Driver(name="ablate-confidence-steps", render_fn=_confidence_steps),
}
