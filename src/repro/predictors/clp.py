"""Cache-level prediction (CLP) baseline.

Following "Reducing Load Latency with Cache Level Prediction" (Jalili &
Erez), the stronger baseline family predicts *where* a load hits rather
than its value: a correct level prediction lets the core issue the fill
request directly to the right level and hide the lookup latencies above
it. This model keeps the trace-driven framing of the repo:

* the phase-1 simulator only models L1 + backing store, so the CLP
  carries its own small modelled L2 (plain-LRU block set) between them;
  every presented miss probes it for the *actual* hit level and then
  fills it, exactly like a fetch would;
* a tag-history table — same ``context_hash`` indexing as the
  approximator — records the recent hit levels per context and predicts
  by majority vote (ties predict the deeper level, the safe direction);
* like LVP, the prediction is validated against the simulated hierarchy
  and a misprediction rolls back: the block is always fetched, no value
  is ever approximated, so the output error is zero by construction. A
  *correct* level prediction counts the miss as covered.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.core.config import ApproximatorConfig
from repro.core.hashing import context_hash
from repro.core.history import HistoryBuffer
from repro.predictors.base import PredictorDecision
from repro.predictors.registry import PredictorInfo, register_predictor
from repro.telemetry.registry import safe_ratio

Number = Union[int, float]

#: Hit levels the CLP distinguishes (L1 is excluded: only misses arrive).
LEVEL_L2 = 2
LEVEL_MEMORY = 3

#: Capacity of the modelled L2 in blocks (4096 × 64 B = 256 KB).
CLP_L2_BLOCKS = 4096
#: log2 of the block size shared with the L1 model.
CLP_BLOCK_BITS = 6


@dataclass(slots=True)
class LevelToken:
    """Ties an in-flight fetch back to the predicting table entry."""

    index: int
    tag: int
    #: The level the table predicted, or ``None`` when it had no history.
    predicted_level: Optional[int]
    #: The level the modelled hierarchy actually served the miss from.
    actual_level: int


@dataclass(slots=True)
class CacheLevelStats:
    """Event counters for the CLP baseline."""

    lookups: int = 0
    predictions: int = 0
    correct: int = 0
    incorrect: int = 0
    tag_misses: int = 0
    cold_misses: int = 0
    stale_trainings: int = 0
    #: Misses the modelled L2 served vs. filled from memory.
    l2_hits: int = 0
    memory_fills: int = 0
    static_pcs: set = field(default_factory=set)

    @property
    def accuracy(self) -> float:
        """Fraction of attempted level predictions that were correct."""
        return safe_ratio(self.correct, self.correct + self.incorrect)


@dataclass(slots=True)
class LevelEntry:
    """One tag-history table slot: a tag plus recent hit levels."""

    tag: int
    levels: HistoryBuffer

    def reallocate(self, tag: int) -> None:
        self.tag = tag
        self.levels.clear()


class CacheLevelPredictor:
    """Tag-history table predicting the hit level of approximable misses.

    Table organisation mirrors the approximator (``table_entries`` slots
    indexed by ``context_hash``, ``lhb_size``-deep per-entry history) so
    the comparison with LVA/LVP holds hardware budget constant.
    """

    def __init__(self, config: Optional[ApproximatorConfig] = None) -> None:
        self.config = config or ApproximatorConfig()
        self.stats = CacheLevelStats()
        self._table: Dict[int, LevelEntry] = {}
        #: Modelled L2: block address -> True, plain LRU via move_to_end.
        self._l2: "OrderedDict[int, bool]" = OrderedDict()
        self._index_bits = self.config.index_bits
        self._tag_bits = self.config.tag_bits

    def _probe_hierarchy(self, addr: int) -> int:
        """The level this miss is actually served from; fills the L2."""
        block = addr >> CLP_BLOCK_BITS
        l2 = self._l2
        if block in l2:
            l2.move_to_end(block)
            self.stats.l2_hits += 1
            return LEVEL_L2
        self.stats.memory_fills += 1
        l2[block] = True
        if len(l2) > CLP_L2_BLOCKS:
            l2.popitem(last=False)
        return LEVEL_MEMORY

    def on_miss(self, pc: int, is_float: bool, addr: int = 0) -> PredictorDecision:
        """Present a load miss; the block is always fetched regardless."""
        del is_float  # levels are value-type agnostic
        stats = self.stats
        stats.lookups += 1
        stats.static_pcs.add(pc)
        index, tag = context_hash(pc, (), self._index_bits, self._tag_bits, 0)
        entry = self._table.get(index)
        if entry is None:
            entry = LevelEntry(tag, HistoryBuffer(self.config.lhb_size))
            self._table[index] = entry
            stats.tag_misses += 1
        elif entry.tag != tag:
            entry.reallocate(tag)
            stats.tag_misses += 1

        actual_level = self._probe_hierarchy(addr)
        history = entry.levels.values()
        if not history:
            stats.cold_misses += 1
            return PredictorDecision(
                predicted=False,
                value=None,
                fetch=True,
                token=LevelToken(index, tag, None, actual_level),
            )
        stats.predictions += 1
        l2_votes = sum(1 for level in history if level == LEVEL_L2)
        predicted = LEVEL_L2 if 2 * l2_votes > len(history) else LEVEL_MEMORY
        return PredictorDecision(
            predicted=True,
            value=None,
            fetch=True,
            token=LevelToken(index, tag, predicted, actual_level),
        )

    def train(self, token: LevelToken, actual: Number) -> bool:
        """Validate the level prediction and record the observed level.

        The fetched *value* is irrelevant to a level predictor; only the
        level recorded at probe time trains the history. Returns True
        when the prediction was correct — the miss latency above the
        predicted level was covered.
        """
        del actual
        correct = token.predicted_level == token.actual_level
        if token.predicted_level is not None:
            if correct:
                self.stats.correct += 1
            else:
                self.stats.incorrect += 1
        entry = self._table.get(token.index)
        if entry is None or entry.tag != token.tag:
            self.stats.stale_trainings += 1
            return correct
        entry.levels.push(token.actual_level)
        return correct

    @property
    def allocated_entries(self) -> int:
        """Number of table slots touched so far."""
        return len(self._table)

    def reset(self) -> None:
        """Clear all architectural state (table, modelled L2) and statistics."""
        self._table.clear()
        self._l2.clear()
        self.stats = CacheLevelStats()


register_predictor(
    PredictorInfo(
        name="clp",
        factory=CacheLevelPredictor,
        description="cache-level predictor: tag-history table over hit levels, rollback on miss",
        zero_output_error=True,
    )
)
