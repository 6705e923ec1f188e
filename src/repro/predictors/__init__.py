"""Pluggable miss-predictor registry (ROADMAP item 3).

Every technique a :class:`~repro.sim.tracesim.TraceSimulator` can drive
on approximable load misses lives here behind the
:class:`~repro.predictors.base.MissPredictor` protocol and is resolved
by name through :mod:`~repro.predictors.registry`:

========= ==============================================================
``lva``   the paper's load value approximator (:mod:`repro.core.approximator`)
``lvp``   idealized load value predictor, Section VI baseline
``clp``   cache-level predictor (Jalili & Erez style hit-level prediction)
``hybrid`` per-PC tournament arbiter mixing LVA and LVP
========= ==============================================================

Importing this package registers the built-in entries; out-of-tree
predictors call :func:`register_predictor` themselves.
"""

from repro.predictors.base import MissPredictor, PredictorDecision
from repro.predictors.registry import (
    DEFAULT_PREDICTOR,
    PredictorInfo,
    UnknownPredictorError,
    active_override,
    available_predictors,
    create,
    get_info,
    register_predictor,
    resolve_name,
)

# Built-in registrations (import order fixes the registry's insertion
# order; available_predictors() sorts, so only duplicates would matter).
from repro.predictors import lva as _lva
from repro.predictors import lvp as _lvp
from repro.predictors import clp as _clp
from repro.predictors import hybrid as _hybrid

__all__ = [
    "DEFAULT_PREDICTOR",
    "MissPredictor",
    "PredictorDecision",
    "PredictorInfo",
    "UnknownPredictorError",
    "active_override",
    "available_predictors",
    "create",
    "get_info",
    "register_predictor",
    "resolve_name",
]
