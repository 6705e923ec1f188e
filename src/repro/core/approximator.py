"""The load value approximator (Sections III-A through III-C, Figure 3).

On an L1 load miss to approximable data the simulator asks the approximator
for a decision:

* **approximated** — the core continues immediately with ``f(LHB)``;
* **fetch** — whether the block is fetched from the next level. With a
  non-zero approximation degree most approximated misses skip the fetch
  entirely (the energy-error trade-off of Section III-C);
* **token** — when a fetch is issued, the actual value arriving later (after
  the *value delay*) trains the approximator via :meth:`train`.

There is no speculation and no rollback: an inexact approximation merely
nudges the confidence counter down.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple, Union

import math
import sys

from repro.core.config import ApproximatorConfig
from repro.core.confidence import confidence_update_steps
from repro.core.entry import ApproximatorEntry
from repro.core.functions import COMPUTE_FUNCTIONS
from repro.core.hashing import context_hash
from repro.core.history import HistoryBuffer
from repro.errors import ConfigurationError
from repro.telemetry.registry import safe_ratio

Number = Union[int, float]

#: :attr:`DelayQueue.next_due` of an empty queue: no load ordinal reaches it.
NEVER_DUE = sys.maxsize


@dataclass(slots=True)
class TrainToken:
    """Ties an in-flight fetch back to the table entry that requested it.

    The value delay (Section VI-C) means the actual value arrives several
    load instructions after the decision was made; by then the entry may
    have been re-allocated to a different context, so the token carries the
    tag to detect staleness.
    """

    index: int
    tag: int
    #: The value the approximator produced (or would have produced) for this
    #: miss; used to adjust confidence against the actual value. ``None``
    #: for cold entries that had no history to compute from.
    shadow_value: Optional[Number]
    is_float: bool


@dataclass(slots=True)
class ApproximationDecision:
    """Outcome of one load miss presented to the approximator."""

    #: True when the core continues with :attr:`value` instead of stalling.
    approximated: bool
    #: The approximate value (valid only when :attr:`approximated`).
    value: Optional[Number]
    #: True when the block must still be fetched from the next level.
    fetch: bool
    #: Training handle for the fetch, if one was issued.
    token: Optional[TrainToken]


@dataclass(slots=True)
class ApproximatorStats:
    """Event counters exposed for the evaluation and for energy accounting."""

    lookups: int = 0
    tag_misses: int = 0
    cold_misses: int = 0
    low_confidence_rejections: int = 0
    approximations: int = 0
    fetches_skipped: int = 0
    trainings: int = 0
    stale_trainings: int = 0
    confidence_increments: int = 0
    confidence_decrements: int = 0
    #: Distinct PCs observed (Figure 12 counts static approximate loads).
    static_pcs: set = field(default_factory=set)

    @property
    def coverage(self) -> float:
        """Fraction of presented misses that were approximated."""
        return safe_ratio(self.approximations, self.lookups)


class DelayQueue:
    """Defers training by the value delay, measured in load instructions.

    Time is the driving simulator's load ordinal (``stats.loads``: the
    n-th load served is ordinal n). :meth:`push` files a training at
    ``now + delay``; :meth:`due` pops the trainings filed at or before
    ``now``. :attr:`next_due` is the head's ordinal (:data:`NEVER_DUE`
    when empty), so a simulator pays one integer compare per load and
    calls :meth:`due` only once ``now >= next_due``.

    The simulator checks at the start of each load and pushes later in
    the same load, so a training pushed during load ``n`` trains at the
    start of load ``max(n + 1, n + delay)``: a delay of zero makes it due
    on the very next load, like a delay of one.
    """

    __slots__ = ("_delay", "_pending", "next_due")

    def __init__(self, delay: int) -> None:
        self._delay = delay
        self._pending: Deque[Tuple[int, TrainToken, Number]] = deque()
        self.next_due = NEVER_DUE

    def push(self, now: int, token: TrainToken, actual: Number) -> None:
        """File ``(token, actual)`` at load ordinal ``now + delay``."""
        due = now + self._delay
        pending = self._pending
        if not pending:
            self.next_due = due
        pending.append((due, token, actual))

    def due(self, now: int) -> List[Tuple[TrainToken, Number]]:
        """Pop the trainings filed at or before ordinal ``now``, oldest first."""
        pending = self._pending
        ready: List[Tuple[TrainToken, Number]] = []
        while pending and pending[0][0] <= now:
            _, token, actual = pending.popleft()
            ready.append((token, actual))
        self.next_due = pending[0][0] if pending else NEVER_DUE
        return ready

    def drain(self) -> List[Tuple[TrainToken, Number]]:
        """Return every pending training (end-of-run flush)."""
        ready = [(token, actual) for _, token, actual in self._pending]
        self._pending.clear()
        self.next_due = NEVER_DUE
        return ready

    def __len__(self) -> int:
        return len(self._pending)


class LoadValueApproximator:
    """Direct-mapped approximator table plus global history buffer.

    This models the hardware of Figure 3 exactly: ``table_entries``
    direct-mapped entries, each with a ``tag_bits`` tag, a signed saturating
    confidence counter, a degree counter and an ``lhb_size``-entry LHB; one
    shared GHB of ``ghb_size`` precise values; the table index is
    ``XOR(PC, GHB)``.
    """

    def __init__(self, config: Optional[ApproximatorConfig] = None) -> None:
        self.config = config or ApproximatorConfig()
        self.ghb = HistoryBuffer(self.config.ghb_size)
        self.stats = ApproximatorStats()
        # Entries are allocated lazily: a hardware table is all-invalid at
        # reset, and most workloads touch a small fraction of the 512 slots.
        self._table: Dict[int, ApproximatorEntry] = {}
        # Config-derived constants, hoisted out of the per-miss path (the
        # dataclass properties and registry lookups are measurable there).
        config = self.config
        self._index_bits = config.index_bits
        self._tag_bits = config.tag_bits
        self._drop_bits = config.mantissa_drop_bits
        try:
            self._compute = COMPUTE_FUNCTIONS[config.compute_fn]
        except KeyError:
            known = ", ".join(sorted(COMPUTE_FUNCTIONS))
            raise ConfigurationError(
                f"unknown compute function {config.compute_fn!r} (known: {known})"
            ) from None
        self._window = config.confidence_window
        self._window_is_inf = math.isinf(config.confidence_window)
        self._step_max = config.confidence_step_max
        self._gate_float = config.apply_confidence_to_floats
        self._gate_int = config.apply_confidence_to_ints
        # With the baseline's empty GHB the context hash is a pure function
        # of the PC, so (index, tag) pairs are memoised per PC.
        self._pc_hashes: Optional[Dict[int, Tuple[int, int]]] = (
            {} if config.ghb_size == 0 else None
        )

    # ------------------------------------------------------------------ #
    # Lookup / generation                                                #
    # ------------------------------------------------------------------ #

    def _locate(self, pc: int) -> Tuple[ApproximatorEntry, bool, int, int]:
        """Find (allocating or re-allocating as needed) the entry for ``pc``.

        Returns the entry, whether the lookup hit an entry already trained
        for this context (tag match), and the (index, tag) pair.
        """
        pc_hashes = self._pc_hashes
        if pc_hashes is not None:
            hashed = pc_hashes.get(pc)
            if hashed is None:
                hashed = pc_hashes[pc] = context_hash(
                    pc, (), self._index_bits, self._tag_bits, self._drop_bits
                )
            index, tag = hashed
        else:
            index, tag = context_hash(
                pc,
                self.ghb.values(),
                self._index_bits,
                self._tag_bits,
                self._drop_bits,
            )
        entry = self._table.get(index)
        if entry is None:
            entry = ApproximatorEntry(
                tag,
                self.config.confidence_bits,
                self.config.lhb_size,
                self.config.approximation_degree,
            )
            self._table[index] = entry
            return entry, False, index, tag
        if entry.tag != tag:
            entry.reallocate(tag)
            return entry, False, index, tag
        return entry, True, index, tag

    def on_miss(self, pc: int, is_float: bool) -> ApproximationDecision:
        """Present one load miss; returns the approximation decision.

        The caller is responsible for issuing the fetch when
        ``decision.fetch`` is set, and for feeding the actual value back via
        :meth:`train` (after the value delay) using ``decision.token``.
        """
        stats = self.stats
        stats.lookups += 1
        stats.static_pcs.add(pc)
        entry, tag_hit, index, tag = self._locate(pc)

        if not tag_hit:
            stats.tag_misses += 1
            return ApproximationDecision(
                approximated=False,
                value=None,
                fetch=True,
                token=TrainToken(index, tag, None, is_float),
            )

        lhb = entry.lhb
        if not lhb:
            stats.cold_misses += 1
            return ApproximationDecision(
                approximated=False,
                value=None,
                fetch=True,
                token=TrainToken(index, tag, None, is_float),
            )

        shadow = self._compute(lhb.view())
        if not is_float:
            shadow = int(round(shadow))

        gated = self._gate_float if is_float else self._gate_int
        if gated and not entry.confidence.is_confident:
            stats.low_confidence_rejections += 1
            # The miss proceeds precisely, but the fetch still trains the
            # entry — confidence can recover once approximations would have
            # been accurate again.
            return ApproximationDecision(
                approximated=False,
                value=None,
                fetch=True,
                token=TrainToken(index, tag, shadow, is_float),
            )

        stats.approximations += 1
        if entry.consume_degree():
            # Degree counter still above zero: reuse the value, skip the
            # fetch entirely (Section III-C). The LHB is untouched, so the
            # next approximation from this entry returns the same value.
            stats.fetches_skipped += 1
            return ApproximationDecision(
                approximated=True, value=shadow, fetch=False, token=None
            )

        return ApproximationDecision(
            approximated=True,
            value=shadow,
            fetch=True,
            token=TrainToken(index, tag, shadow, is_float),
        )

    # ------------------------------------------------------------------ #
    # Training                                                           #
    # ------------------------------------------------------------------ #

    def train(self, token: TrainToken, actual: Number) -> None:
        """Train with the actual value fetched from memory (step 4, Fig. 2).

        Pushes the precise value into the GHB and — provided the entry
        still belongs to the same context — into the entry's LHB, adjusts
        the confidence counter against the relaxed window, and resets the
        degree counter.
        """
        stats = self.stats
        stats.trainings += 1
        if self._pc_hashes is None:
            self.ghb.push(actual)
        entry = self._table.get(token.index)
        if entry is None or entry.tag != token.tag:
            # The entry was re-allocated while the fetch was in flight; the
            # training is stale and only the GHB benefits.
            stats.stale_trainings += 1
            return
        entry.lhb.push(actual)
        entry.reset_degree()
        shadow = token.shadow_value
        if shadow is not None:
            if self._step_max == 1 and not self._window_is_inf:
                # Baseline +1/-1 updates: a plain window test, inlined —
                # exactly confidence_update_steps() specialised to step 1.
                denom = self._window * abs(actual) if actual != 0 else self._window
                steps = 1 if abs(shadow - actual) <= denom else -1
            else:
                steps = confidence_update_steps(
                    shadow, actual, self._window, self._step_max
                )
            entry.confidence.add(steps)
            if steps > 0:
                stats.confidence_increments += 1
            else:
                stats.confidence_decrements += 1

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    @property
    def allocated_entries(self) -> int:
        """Number of table slots touched so far (hardware-budget insight)."""
        return len(self._table)

    def reset(self) -> None:
        """Clear all architectural state (table, GHB) and statistics."""
        self._table.clear()
        self.ghb.clear()
        self.stats = ApproximatorStats()
