"""Predictor zoo: cross-predictor MPKI / coverage / error comparison.

Every registered predictor runs over every benchmark through
``Mode.PREDICTOR`` — the same point engine, caches and normalization as
the paper's figures, with ``config.predictor`` as the sweep axis (each
predictor therefore gets its own cache/disk keys). Three metric families
per predictor:

* ``mpki:*`` — effective MPKI normalized to precise execution;
* ``cov:*`` — fraction of approximable misses covered (approximated,
  or validated-correct for the rollback predictors);
* ``err:*`` — application output error (zero by construction for the
  rollback predictors LVP and CLP).

The ``lva``/``lvp`` columns are bit-identical to ``Mode.LVA`` /
``Mode.LVP`` runs of the same config — the registry resolves the exact
historical implementations (pinned by ``tests/experiments/test_fig_predictors.py``).
"""

from __future__ import annotations

from typing import Tuple

from repro.core.config import ApproximatorConfig
from repro.experiments.common import BASELINE_WORKLOADS, Driver, ExperimentResult, run_technique
from repro.sim.mode import Mode

#: The registry predictors the comparison sweeps. A fixed tuple rather
#: than available_predictors() so the table layout is stable even when
#: out-of-tree predictors have registered themselves in-process.
PREDICTORS: Tuple[str, ...] = ("lva", "lvp", "clp", "hybrid")


def _config(predictor: str) -> ApproximatorConfig:
    return ApproximatorConfig(predictor=predictor)


def _render(small: bool = False, seed: int = 0) -> ExperimentResult:
    """Sweep every registered predictor over every benchmark."""
    result = ExperimentResult(
        name="Predictor zoo",
        description=(
            "normalized MPKI / coverage / output error per registry predictor"
        ),
        meta={
            "predictors": ", ".join(PREDICTORS),
            "expectation": (
                "lva matches Mode.LVA bit-for-bit; lvp and clp report zero "
                "output error (rollback); hybrid trades coverage for error"
            ),
        },
    )
    for name in BASELINE_WORKLOADS:
        for predictor in PREDICTORS:
            r = run_technique(
                name, Mode.PREDICTOR, config=_config(predictor), seed=seed, small=small
            )
            result.add(f"mpki:{predictor}", name, r.normalized_mpki)
            result.add(f"cov:{predictor}", name, r.coverage)
            result.add(f"err:{predictor}", name, r.output_error)
    return result


#: The :class:`~repro.experiments.common.Driver` for this
#: experiment — the supported entry point for programmatic use.
DRIVER = Driver(name="fig_predictors", render_fn=_render)
