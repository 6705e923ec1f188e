"""Experiment drivers: one module per table/figure of the paper.

Every driver module exposes a ``DRIVER`` whose
``render(small=False, seed=0)`` returns an ``ExperimentResult``; each can
be executed from the command line via ``python -m repro.experiments``
(see :mod:`repro.experiments.runner`). The benchmark harness under
``benchmarks/`` wraps these same drivers with pytest-benchmark.

=========  ==========================================================
table1     Precise L1 MPKI + dynamic instruction-count variation
table2     Configuration constants (verified, not measured)
fig4       Normalized MPKI: LVA vs idealized LVP across GHB sizes
fig5       Output error across GHB sizes
fig6       MPKI + error across relaxed confidence windows
fig7       MPKI + error across value delays
fig8       MPKI + fetches: approximation degree vs prefetch degree
fig9       Output error across approximation degrees
fig10      Full-system speedup + energy savings vs degree
fig11      Normalized L1-miss EDP vs degree
fig12      Static approximate-load PC counts
fig13      fluidanimate MPKI vs float mantissa precision loss
fig_predictors  Cross-predictor MPKI/coverage/error (registry zoo)
=========  ==========================================================
"""

from repro.experiments.common import (
    BASELINE_WORKLOADS,
    ExperimentResult,
    capture_trace,
    geometric_mean,
    run_fullsystem_point,
    run_precise_reference,
    run_technique,
)

__all__ = [
    "BASELINE_WORKLOADS",
    "ExperimentResult",
    "capture_trace",
    "geometric_mean",
    "run_fullsystem_point",
    "run_precise_reference",
    "run_technique",
]
