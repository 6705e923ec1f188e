"""Context-mixing hybrid: arbitrate LVA vs. LVP per entry by recent accuracy.

Runs the approximator and the idealized LVP side by side on the same
config and, per static load, chooses which one's decision drives the
core. The chooser is a signed saturating counter (one per PC, the same
tournament organisation as a combining branch predictor): every resolved
training bumps it toward whichever component was right when the other
was wrong, so each load converges on the technique that works for *its*
value stream — approximation for smoothly varying data, exact
prediction for small repeating value sets.

When the chooser picks LVA the decision (value, fetch skip, confidence
gating) is the approximator's and coverage is counted at decision time;
when it picks LVP the miss proceeds precisely with rollback semantics
and a correct oracle prediction counts the miss as covered at training
time. Both components train on every fetched value regardless of who
drove the decision, so neither starves while the other is selected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.core.approximator import LoadValueApproximator, TrainToken
from repro.core.config import ApproximatorConfig
from repro.core.confidence import confidence_update_steps
from repro.predictors.base import PredictorDecision
from repro.predictors.lvp import IdealizedLoadValuePredictor, PredictionToken
from repro.predictors.registry import PredictorInfo, register_predictor

Number = Union[int, float]

#: Chooser saturation bounds; >= 0 selects LVA (the paper's technique is
#: the default until LVP proves more accurate for an entry).
CHOOSER_MIN = -4
CHOOSER_MAX = 3


@dataclass(slots=True)
class HybridToken:
    """Training handle carrying both components' tokens plus the choice."""

    pc: int
    chose_lva: bool
    lva_token: Optional[TrainToken]
    lvp_token: PredictionToken


@dataclass(slots=True)
class HybridStats:
    """Event counters for the hybrid arbiter."""

    lookups: int = 0
    #: Decisions driven by each component.
    lva_selected: int = 0
    lvp_selected: int = 0
    #: Misses the core continued approximately (LVA chosen + approximated).
    approximations: int = 0
    trainings: int = 0
    #: Resolved trainings where each component was (window-)correct.
    lva_correct_trainings: int = 0
    lvp_correct_trainings: int = 0
    static_pcs: set = field(default_factory=set)


class HybridPredictor:
    """Tournament arbiter over a :class:`LoadValueApproximator` and an
    :class:`IdealizedLoadValuePredictor` built from the same config."""

    def __init__(self, config: Optional[ApproximatorConfig] = None) -> None:
        self.config = config or ApproximatorConfig()
        self.lva = LoadValueApproximator(self.config)
        self.lvp = IdealizedLoadValuePredictor(self.config)
        self.stats = HybridStats()
        self._chooser: Dict[int, int] = {}

    def on_miss(self, pc: int, is_float: bool, addr: int = 0) -> PredictorDecision:
        """Present one miss to both components; the chooser picks the driver."""
        del addr
        stats = self.stats
        stats.lookups += 1
        stats.static_pcs.add(pc)
        lva_decision = self.lva.on_miss(pc, is_float)
        lvp_decision = self.lvp.on_miss(pc, is_float)
        chose_lva = self._chooser.get(pc, 0) >= 0
        if chose_lva:
            stats.lva_selected += 1
            value = lva_decision.value if lva_decision.approximated else None
            if value is not None:
                stats.approximations += 1
            fetch = lva_decision.fetch
        else:
            stats.lvp_selected += 1
            value = None  # rollback semantics: the core stays precise
            fetch = True
        token = HybridToken(pc, chose_lva, lva_decision.token, lvp_decision.token)
        return PredictorDecision(
            predicted=value is not None or (not chose_lva and lvp_decision.predicted),
            value=value,
            fetch=fetch,
            # A skipped fetch (LVA degree reuse) resolves no training round.
            token=token if fetch else None,
        )

    def train(self, token: HybridToken, actual: Number) -> bool:
        """Train both components, settle the chooser, report coverage.

        Returns True only for LVP-driven decisions whose oracle
        prediction was correct — LVA-driven coverage was already counted
        at decision time by the simulator.
        """
        stats = self.stats
        stats.trainings += 1
        lva_token = token.lva_token
        shadow = lva_token.shadow_value if lva_token is not None else None
        if lva_token is not None:
            self.lva.train(lva_token, actual)
        lva_correct = shadow is not None and (
            confidence_update_steps(shadow, actual, self.config.confidence_window, 1) > 0
        )
        lvp_correct = self.lvp.train(token.lvp_token, actual)
        if lva_correct:
            stats.lva_correct_trainings += 1
        if lvp_correct:
            stats.lvp_correct_trainings += 1
        if lva_correct != lvp_correct:
            chooser = self._chooser
            counter = chooser.get(token.pc, 0)
            if lva_correct:
                chooser[token.pc] = min(CHOOSER_MAX, counter + 1)
            else:
                chooser[token.pc] = max(CHOOSER_MIN, counter - 1)
        return (not token.chose_lva) and lvp_correct

    @property
    def allocated_entries(self) -> int:
        """Table slots touched in the larger of the two component tables."""
        return max(self.lva.allocated_entries, self.lvp.allocated_entries)

    def reset(self) -> None:
        """Clear both components, the chooser, and statistics."""
        self.lva.reset()
        self.lvp.reset()
        self._chooser.clear()
        self.stats = HybridStats()


register_predictor(
    PredictorInfo(
        name="hybrid",
        description="tournament hybrid: per-PC chooser arbitrating LVA vs. idealized LVP",
        factory=HybridPredictor,
        zero_output_error=False,
    )
)
