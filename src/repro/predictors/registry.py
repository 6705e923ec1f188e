"""The pluggable predictor registry.

Predictors register themselves by name at import time; the simulators,
the API facade and the sweep engine resolve them exclusively through
this module, so a new miss-handling technique plugs in without touching
``repro.sim`` (ROADMAP item 3):

    from repro.predictors import PredictorInfo, register_predictor

    register_predictor(PredictorInfo(
        name="mine",
        factory=MyPredictor,
        description="...",
        zero_output_error=True,
    ))

``REPRO_PREDICTOR`` overrides the registry name for ``Mode.PREDICTOR``
runs; it is a *keyed* variable — :func:`active_override` is the single
read site and its result folds into the experiment disk keys (see
``repro.envspec`` and lint rule LVA007).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.config import ApproximatorConfig
from repro.envspec import PREDICTOR_ENV
from repro.errors import ConfigurationError

#: Registry name a default-constructed config resolves to.
DEFAULT_PREDICTOR = "lva"


class UnknownPredictorError(ConfigurationError):
    """A lookup named no registered predictor."""


@dataclass(frozen=True, slots=True)
class PredictorInfo:
    """One registry entry: how to build a predictor and what it guarantees."""

    #: Registry name (``config.predictor`` / ``REPRO_PREDICTOR`` value).
    name: str
    #: Builds the predictor from an :class:`ApproximatorConfig`.
    factory: Callable[[ApproximatorConfig], object]
    #: One-line description shown by error messages and docs.
    description: str
    #: True when mispredictions roll back: the run always finishes with
    #: precise values, so the output error is zero by construction.
    zero_output_error: bool


_REGISTRY: Dict[str, PredictorInfo] = {}


def register_predictor(info: PredictorInfo) -> PredictorInfo:
    """Add ``info`` to the registry; duplicate names are a configuration bug."""
    if info.name in _REGISTRY:
        raise ConfigurationError(f"predictor {info.name!r} is already registered")
    _REGISTRY[info.name] = info
    return info


def available_predictors() -> Tuple[str, ...]:
    """Registered predictor names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_info(name: str) -> PredictorInfo:
    """The registry entry for ``name``; unknown names list what exists."""
    info = _REGISTRY.get(name)
    if info is None:
        known = ", ".join(available_predictors())
        raise UnknownPredictorError(
            f"unknown predictor {name!r} (available: {known})"
        )
    return info


def create(name: str, config: Optional[ApproximatorConfig] = None) -> object:
    """Build the predictor registered as ``name`` from ``config``."""
    return get_info(name).factory(config or ApproximatorConfig())


def active_override(mode_value: str = "predictor") -> str:
    """The ``REPRO_PREDICTOR`` override for a run in ``mode_value``.

    Canonicalised (stripped, lowered); the empty string when unset or
    when the mode is not ``"predictor"`` — the override never retargets
    the fixed-technique modes, and experiment keys stay clean for them.
    """
    if mode_value != "predictor":
        return ""
    return os.environ.get(PREDICTOR_ENV, "").strip().lower()


def resolve_name(mode_value: str, config: ApproximatorConfig) -> str:
    """The registry name a simulator in ``mode_value`` should build.

    ``Mode.LVA`` and ``Mode.LVP`` pin their historical techniques by
    name (bit-for-bit compatibility); ``Mode.PREDICTOR`` takes the
    environment override, then ``config.predictor``.
    """
    if mode_value == "predictor":
        return active_override(mode_value) or config.predictor or DEFAULT_PREDICTOR
    return mode_value
