"""Figure 8: approximation degree vs prefetch degree — MPKI and fetches.

A GHB prefetcher (local delta correlation + next line) with degrees 2, 4,
8 and 16 is compared against LVA with the same approximation degrees.
Both reduce MPKI; the difference is the *fetch count*: prefetching buys
its MPKI reduction with extra fetches (up to ~1.7x in the paper), while
LVA's approximation degree cancels fetches outright (~0.6x at degree 16).
"""

from __future__ import annotations

from typing import Tuple

from repro.core.config import ApproximatorConfig
from repro.experiments.common import BASELINE_WORKLOADS, Driver, ExperimentResult, run_technique
from repro.sim.mode import Mode

DEGREES: Tuple[int, ...] = (2, 4, 8, 16)


def _render(small: bool = False, seed: int = 0) -> ExperimentResult:
    """Sweep prefetch degree and approximation degree."""
    result = ExperimentResult(
        name="Figure 8",
        description="normalized MPKI and fetches: prefetching vs LVA degree",
        meta={
            "expectation": "prefetch fetches > 1.0 and rising; LVA fetches < 1.0 and falling"
        },
    )
    for name in BASELINE_WORKLOADS:
        for degree in DEGREES:
            prefetch = run_technique(
                name,
                Mode.PREFETCH,
                prefetch_degree=degree,
                seed=seed,
                small=small,
            )
            result.add(f"prefetch-{degree}-mpki", name, prefetch.normalized_mpki)
            result.add(
                f"prefetch-{degree}-fetches", name, prefetch.normalized_fetches
            )
            config = ApproximatorConfig(approximation_degree=degree)
            lva = run_technique(
                name, Mode.LVA, config=config, seed=seed, small=small
            )
            result.add(f"approx-{degree}-mpki", name, lva.normalized_mpki)
            result.add(f"approx-{degree}-fetches", name, lva.normalized_fetches)
    return result


#: The :class:`~repro.experiments.common.Driver` for this
#: experiment — the supported entry point for programmatic use.
DRIVER = Driver(name="fig8", render_fn=_render)
