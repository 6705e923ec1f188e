"""The ``MissPredictor`` protocol shared by every registry predictor.

A predictor is the technique object a :class:`~repro.sim.tracesim.TraceSimulator`
drives on approximable L1 load misses. The contract is exactly what the
simulator calls:

* ``on_miss(pc, is_float, addr=0)`` — probe with one miss; returns a
  decision object carrying (at least) a training ``token`` and whether
  the block must still be fetched;
* ``train(token, actual)`` — validate against the actual value once the
  fetch lands (after the value delay). Predictors with rollback
  semantics return ``True`` when the prediction was correct, i.e. the
  miss latency was genuinely covered; the approximator returns ``None``
  because its coverage is counted at decision time;
* ``stats`` / ``reset()`` / ``allocated_entries`` — deterministic event
  counters and architectural-state introspection;
* ``config`` — the :class:`~repro.core.config.ApproximatorConfig` the
  predictor was built from (the disk/cache key component).

Generic predictors (anything that is not the LVA approximator or the
idealized LVP, which keep their historical decision dataclasses) return
:class:`PredictorDecision` from ``on_miss``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Protocol, Union, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import ApproximatorConfig

Number = Union[int, float]


@dataclass(slots=True)
class PredictorDecision:
    """Outcome of one load miss presented to a generic registry predictor."""

    #: True when the predictor produced *something* for this miss (a value
    #: or a structural prediction such as a hit level).
    predicted: bool
    #: The value the core continues with instead of stalling, or ``None``
    #: when the miss proceeds precisely (rollback-on-miss predictors never
    #: return a value, which is what makes their output error zero).
    value: Optional[Number]
    #: True when the block must still be fetched from the next level.
    fetch: bool
    #: Training handle threaded through the value-delay queue, if the
    #: prediction wants to be validated against the actual value.
    token: Optional[object]


@runtime_checkable
class MissPredictor(Protocol):
    """Structural protocol every registry predictor satisfies."""

    config: "ApproximatorConfig"
    stats: object

    def on_miss(self, pc: int, is_float: bool, addr: int = 0) -> object:
        """Probe with one approximable load miss; return a decision."""
        ...

    def train(self, token: object, actual: Number) -> Optional[bool]:
        """Validate/train with the actual value; ``True`` = miss covered."""
        ...

    def reset(self) -> None:
        """Clear all architectural state and statistics."""
        ...

    @property
    def allocated_entries(self) -> int:
        """Number of table slots touched so far."""
        ...
