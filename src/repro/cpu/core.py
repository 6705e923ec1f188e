"""Trace-driven out-of-order core timing model.

The model captures the first-order interaction the paper measures: how much
L1 miss latency the out-of-order window can hide, and how much remains
exposed on the critical path. Canneal's simple cost computation cannot hide
its misses (large speedup from LVA); swaptions is compute-bound (little
speedup). Both behaviours emerge from the ROB-occupancy rule below.

Mechanics:

* Non-load instructions retire at ``width`` per cycle.
* A load miss issued at time *t* with latency *L* completes at *t + L*. The
  core keeps executing younger instructions until the ROB holds
  ``rob_entries`` instructions past the oldest incomplete miss, then stalls
  until that miss completes.
* An approximated load never enters the outstanding set — the approximator
  supplies its value immediately (step 3a of Figure 2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Tuple

from repro.telemetry.registry import safe_ratio

from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class CoreConfig:
    """Core parameters (Table II: 4-wide OoO, 32-entry ROB, 2 GHz)."""

    width: int = 4
    rob_entries: int = 32
    frequency_ghz: float = 2.0

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ConfigurationError("pipeline width must be >= 1")
        if self.rob_entries < 1:
            raise ConfigurationError("ROB must have >= 1 entry")
        if self.frequency_ghz <= 0:
            raise ConfigurationError("frequency must be positive")


@dataclass(slots=True)
class CoreStats:
    """Per-core timing counters."""

    instructions: int = 0
    load_misses: int = 0
    total_miss_latency: int = 0
    stall_cycles: float = 0.0

    @property
    def average_miss_latency(self) -> float:
        """Mean L1 miss latency observed by this core, in cycles."""
        return safe_ratio(self.total_miss_latency, self.load_misses)


class CoreTimingModel:
    """One core's clock, driven by a stream of instruction/load events."""

    def __init__(self, config: CoreConfig = CoreConfig()) -> None:
        self.config = config
        self.stats = CoreStats()
        #: Current core time in cycles.
        self.clock = 0.0
        # (completion_time, instruction_index_at_issue) of incomplete misses,
        # oldest first.
        self._outstanding: Deque[Tuple[float, int]] = deque()

    def _enforce_rob(self) -> None:
        """Stall when the ROB is full behind the oldest incomplete miss.

        The oldest miss leaves the window once it has completed; while it
        is incomplete and ``rob_entries`` younger instructions have issued
        behind it, the core stalls until it completes.
        """
        outstanding = self._outstanding
        while outstanding:
            completion, issue_index = outstanding[0]
            if completion > self.clock:
                if self.stats.instructions - issue_index < self.config.rob_entries:
                    break
                self.stats.stall_cycles += completion - self.clock
                self.clock = completion
            outstanding.popleft()

    def advance(self, instructions: int) -> None:
        """Execute ``instructions`` non-miss instructions."""
        if instructions <= 0:
            return
        if not self._outstanding:
            # An empty window never stalls: the loop below would run one
            # chunk of the whole slug.
            self.stats.instructions += instructions
            self.clock += instructions / self.config.width
            return
        # Execute in ROB-sized chunks so a full window stalls mid-stream
        # rather than letting an unbounded slug of work slide past a miss.
        remaining = instructions
        while remaining > 0:
            self._enforce_rob()
            chunk = remaining
            if self._outstanding:
                completion, issue_index = self._outstanding[0]
                room = self.config.rob_entries - (self.stats.instructions - issue_index)
                chunk = min(remaining, max(room, 1))
            self.stats.instructions += chunk
            self.clock += chunk / self.config.width
            remaining -= chunk

    def issue_load(self, latency: int, blocking: bool = True) -> None:
        """Issue one load instruction.

        Args:
            latency: Cycles until the value is available. L1 hits should
                pass the L1 latency; approximated loads pass 0.
            blocking: False for approximated loads — the core consumes the
                approximate value immediately and the (optional) fetch is
                off the critical path, so nothing enters the window.
        """
        if self._outstanding:
            self._enforce_rob()
        self.stats.instructions += 1
        self.clock += 1 / self.config.width
        if not blocking or latency <= 0:
            return
        self.stats.load_misses += 1
        self.stats.total_miss_latency += latency
        self._outstanding.append((self.clock + latency, self.stats.instructions))

    def finish(self) -> float:
        """Drain outstanding misses; returns the final cycle count.

        The core must wait for its oldest miss to complete before retiring —
        remaining younger work is assumed already overlapped.
        """
        if self._outstanding:
            last_completion = max(completion for completion, _ in self._outstanding)
            if last_completion > self.clock:
                self.stats.stall_cycles += last_completion - self.clock
                self.clock = last_completion
            self._outstanding.clear()
        return self.clock

    def reset(self) -> None:
        """Zero the clock, the window and the statistics."""
        self.clock = 0.0
        self._outstanding.clear()
        self.stats = CoreStats()
