"""Saturating confidence counters and the relaxed confidence window test.

Traditional value predictors only predict at high confidence and count any
inexact prediction as a miss, limiting coverage. Load value approximation
relaxes the window (Section III-B): the counter is incremented whenever the
approximation falls within +/- W of the actual value, so approximators keep
generating values that are "close enough".
"""

from __future__ import annotations

import math
from typing import Union

from repro.errors import ConfigurationError

Number = Union[int, float]


class SaturatingCounter:
    """A signed saturating counter, e.g. 4 bits saturating at [-8, 7].

    The approximator makes an approximation whenever the counter is
    greater than or equal to zero (paper, Section III-B), so a freshly
    allocated entry (counter = 0) approximates immediately.
    """

    __slots__ = ("_lo", "_hi", "_value")

    def __init__(self, bits: int = 4, initial: int = 0) -> None:
        if bits < 1:
            raise ConfigurationError(f"counter width must be >= 1 bit, got {bits}")
        self._lo = -(1 << (bits - 1))
        self._hi = (1 << (bits - 1)) - 1
        if not self._lo <= initial <= self._hi:
            raise ConfigurationError(
                f"initial value {initial} outside counter range [{self._lo}, {self._hi}]"
            )
        self._value = initial

    @property
    def value(self) -> int:
        """Current counter value."""
        return self._value

    @property
    def minimum(self) -> int:
        """Saturation floor (e.g. -8 for 4 bits)."""
        return self._lo

    @property
    def maximum(self) -> int:
        """Saturation ceiling (e.g. 7 for 4 bits)."""
        return self._hi

    @property
    def is_confident(self) -> bool:
        """True when the approximator may generate a value (counter >= 0)."""
        return self._value >= 0

    def increment(self) -> int:
        """Add one, saturating at the ceiling; returns the new value."""
        if self._value < self._hi:
            self._value += 1
        return self._value

    def decrement(self) -> int:
        """Subtract one, saturating at the floor; returns the new value."""
        if self._value > self._lo:
            self._value -= 1
        return self._value

    def add(self, steps: int) -> int:
        """Adjust by a signed number of steps, saturating; returns the new
        value. Used by the variable-step confidence updates of
        :func:`confidence_update_steps`."""
        self._value = min(max(self._value + steps, self._lo), self._hi)
        return self._value

    def reset(self, value: int = 0) -> None:
        """Force the counter to ``value`` (clamped into range)."""
        self._value = min(max(value, self._lo), self._hi)

    def __repr__(self) -> str:
        return f"SaturatingCounter(value={self._value}, range=[{self._lo}, {self._hi}])"


def confidence_update_steps(
    approx: Number, actual: Number, window: float, step_max: int = 1
) -> int:
    """Signed confidence adjustment for one training observation.

    With ``step_max == 1`` this is the paper's baseline: +1 when the
    approximation falls within the window, -1 otherwise. ``step_max > 1``
    implements the variable-step optimisation Section III-B explicitly
    defers to future work ("the confidence counter could be adjusted by
    more than one depending on how far off the approximation is") — a
    feature impossible for traditional value prediction, whose correctness
    is binary:

    * let ``ratio = |approx - actual| / (window * |actual|)`` (the error
      measured in window-widths; 0 is perfect, 1 is the window edge);
    * inside the window the increment grows as the approximation gets
      better: ``max(1, round(step_max * (1 - ratio)))``;
    * outside, the decrement grows with the overshoot:
      ``-min(step_max, round(ratio))``.

    An infinite window always returns ``+step_max`` (never decrements); a
    zero window degenerates to exact matching at full step.
    """
    if step_max < 1:
        raise ConfigurationError(f"step_max must be >= 1, got {step_max}")
    if math.isinf(window):
        return step_max
    if window == 0:
        return step_max if approx == actual else -step_max
    denom = window * abs(actual) if actual != 0 else window
    if denom == 0:  # degenerate: actual == 0 and window relative
        return step_max if approx == actual else -step_max
    ratio = abs(approx - actual) / denom
    if ratio != ratio:  # NaN operands: treat as maximally wrong
        return -step_max
    if ratio <= 1.0:
        return max(1, round(step_max * (1.0 - ratio)))
    if ratio >= step_max:  # also guards ratio == inf against round()
        return -step_max
    return -min(step_max, max(1, round(ratio)))


def within_window(approx: Number, actual: Number, window: float) -> bool:
    """Is ``approx`` within the relaxed confidence window of ``actual``?

    The window is relative: ``|approx - actual| <= window * |actual|``.
    A window of 0 demands exact equality (traditional value prediction);
    ``math.inf`` always passes (the "infinitely relaxed" point of
    Figure 6). When the actual value is exactly zero a relative window is
    degenerate, so the test falls back to an absolute tolerance of
    ``window`` itself — e.g. a 10 % window accepts approximations within
    0.1 of an actual zero.
    """
    if math.isinf(window):
        return True
    if window == 0:
        return approx == actual
    if actual == 0:
        return abs(approx) <= window
    return abs(approx - actual) <= window * abs(actual)
