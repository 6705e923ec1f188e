"""Figure 6: relaxed confidence estimation — MPKI and error vs window.

Confidence windows of 0 % (exact matching, i.e. ideal-LVP-style), 5 %,
10 %, 20 % and infinitely relaxed are applied to *both* integer and
floating-point data (unlike the baseline, which exempts integers). The
trade-off: wider windows approximate more often (lower MPKI) at the cost
of output integrity; with an infinite window the confidence counter never
decrements and every warm miss is approximated.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.config import INFINITE_WINDOW, ApproximatorConfig
from repro.experiments.common import BASELINE_WORKLOADS, Driver, ExperimentResult, run_technique
from repro.sim.mode import Mode

#: (label, window) points of the sweep.
WINDOWS: Tuple[Tuple[str, float], ...] = (
    ("0%", 0.0),
    ("5%", 0.05),
    ("10%", 0.10),
    ("20%", 0.20),
    ("infinite", INFINITE_WINDOW),
)


def _config(window: float) -> ApproximatorConfig:
    # Both data types employ confidence in this sweep; an infinite window
    # makes every training increment the counter, so warm entries are
    # always approximated — the paper's "infinitely relaxed" point.
    return ApproximatorConfig(
        confidence_window=window,
        apply_confidence_to_floats=True,
        apply_confidence_to_ints=True,
    )


def _render(small: bool = False, seed: int = 0) -> ExperimentResult:
    """Sweep relaxed confidence windows, recording MPKI and error."""
    result = ExperimentResult(
        name="Figure 6",
        description="normalized MPKI and output error vs confidence window",
        meta={"expectation": "wider window -> lower MPKI, higher error"},
    )
    for name in BASELINE_WORKLOADS:
        for label, window in WINDOWS:
            lva = run_technique(
                name, Mode.LVA, config=_config(window), seed=seed, small=small
            )
            result.add(f"mpki-{label}", name, lva.normalized_mpki)
            result.add(f"error-{label}", name, lva.output_error)
    return result


#: The :class:`~repro.experiments.common.Driver` for this
#: experiment — the supported entry point for programmatic use.
DRIVER = Driver(name="fig6", render_fn=_render)
