"""Parameter sensitivity: how much does each approximator knob matter?

A tornado-style analysis around the Table II baseline: every approximator
parameter is perturbed one-at-a-time to a lower and a higher setting, and
the resulting change in average normalized MPKI and output error across
the benchmarks quantifies which design choices the results actually hinge
on. Complements the per-figure sweeps by putting all knobs on one axis.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.config import ApproximatorConfig
from repro.experiments.common import Driver, ExperimentResult, run_technique
from repro.sim.mode import Mode

#: (knob, low-override, high-override) around the Table II baseline.
PERTURBATIONS: Tuple[Tuple[str, dict, dict], ...] = (
    ("table_entries", {"table_entries": 64}, {"table_entries": 2048}),
    ("lhb_size", {"lhb_size": 1}, {"lhb_size": 8}),
    ("confidence_window", {"confidence_window": 0.02}, {"confidence_window": 0.50}),
    ("confidence_bits", {"confidence_bits": 2}, {"confidence_bits": 6}),
    ("ghb_size", {}, {"ghb_size": 2}),  # baseline 0 has no lower setting
    ("value_delay", {"value_delay": 0}, {"value_delay": 16}),
    ("approximation_degree", {}, {"approximation_degree": 8}),
)


def _workloads(small: bool) -> List[str]:
    if small:
        return ["blackscholes", "canneal", "fluidanimate"]
    return ["blackscholes", "canneal", "fluidanimate", "x264"]


def _mean_metrics(
    overrides: dict, small: bool, seed: int, workloads: List[str]
) -> Tuple[float, float]:
    config = ApproximatorConfig(**overrides)
    mpki_total = error_total = 0.0
    for name in workloads:
        outcome = run_technique(name, Mode.LVA, config=config, seed=seed, small=small)
        mpki_total += outcome.normalized_mpki
        error_total += outcome.output_error
    count = len(workloads)
    return mpki_total / count, error_total / count


def _render(small: bool = False, seed: int = 0) -> ExperimentResult:
    """One-at-a-time perturbation around the baseline configuration."""
    # A representative subset keeps the tornado affordable at full scale
    # while spanning int/float and high/low-MPKI behaviours.
    workloads = _workloads(small)

    result = ExperimentResult(
        name="Sensitivity",
        description="one-at-a-time parameter perturbations vs baseline",
        meta={"workloads": workloads},
    )
    base_mpki, base_error = _mean_metrics({}, small, seed, workloads)
    result.add("mpki", "baseline", base_mpki)
    result.add("error", "baseline", base_error)
    result.add("mpki_delta", "baseline", 0.0)
    result.add("error_delta", "baseline", 0.0)

    for knob, low, high in PERTURBATIONS:
        for suffix, overrides in (("low", low), ("high", high)):
            if not overrides:
                continue
            mpki, error = _mean_metrics(overrides, small, seed, workloads)
            label = f"{knob}-{suffix}"
            result.add("mpki", label, mpki)
            result.add("error", label, error)
            result.add("mpki_delta", label, mpki - base_mpki)
            result.add("error_delta", label, error - base_error)
    return result


#: The :class:`~repro.experiments.common.Driver` for this
#: experiment — the supported entry point for programmatic use.
DRIVER = Driver(name="ablate-sensitivity", render_fn=_render)
