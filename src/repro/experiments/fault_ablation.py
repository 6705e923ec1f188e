"""Ablation: approximator robustness under injected memory faults.

The fault-injection harness (:mod:`repro.faults`) can flip bits in
memory-served load values and silently drop block fetches. This ablation
sweeps those fault rates and reports how the approximator's coverage
(its confidence gate's acceptance rate) and application output error
respond. The precise baselines always run clean — error is measured
against *uncorrupted* execution, so the numbers isolate the fault
effect rather than comparing two equally corrupted runs.

Expectation: LVA degrades gracefully. Bit flips land in GHB history and
approximator entries, perturbing predictions; the confidence mechanism
sheds the worst of them, so coverage falls faster than output error
explodes. Dropped fetches starve training updates and raise effective
MPKI but do not corrupt values.
"""

from __future__ import annotations

from typing import Tuple

from repro import faults
from repro.experiments.common import Driver, ExperimentResult, run_technique
from repro.sim.mode import Mode

#: (series tag, fault spec) — "" means clean execution.
FAULT_LEVELS: Tuple[Tuple[str, str], ...] = (
    ("clean", ""),
    ("flip-1e-4", "flip:prob=0.0001"),
    ("flip-1e-3", "flip:prob=0.001"),
    ("flip-1e-2", "flip:prob=0.01"),
    ("flip-1e-1", "flip:prob=0.1"),
    ("drop-1e-3", "drop:prob=0.001"),
    ("drop-1e-2", "drop:prob=0.01"),
)

#: One float-heavy, one int-heavy, one mixed workload — enough to show
#: the type-dependent fault response without sweeping the whole suite.
WORKLOADS: Tuple[str, ...] = ("blackscholes", "canneal", "fluidanimate")


def _render(small: bool = False, seed: int = 0) -> ExperimentResult:
    """Sweep injected memory-fault rates for LVA."""
    result = ExperimentResult(
        name="Ablation: memory faults",
        description="LVA output error / coverage vs injected memory-fault rate",
        meta={
            "expectation": "confidence sheds corrupted values; graceful degradation"
        },
    )
    for name in WORKLOADS:
        for tag, spec in FAULT_LEVELS:
            with faults.memory_faults(spec):
                lva = run_technique(name, Mode.LVA, seed=seed, small=small)
            result.add(f"error@{tag}", name, lva.output_error)
            result.add(f"coverage@{tag}", name, lva.coverage)
            # The injected-fault counters make the dose observable even
            # when the (threshold-counting) error metric absorbs it.
            result.add(f"bitflips@{tag}", name, lva.raw.get("value_bit_flips", 0))
            result.add(f"drops@{tag}", name, lva.raw.get("fetches_dropped", 0))
    return result


#: The :class:`~repro.experiments.common.Driver` for this
#: experiment — the supported entry point for programmatic use.
DRIVER = Driver(name="ablate-memory-faults", render_fn=_render)
