"""Deterministic memory-fault models: bit flips and dropped fetches.

The model perturbs values *as they arrive from the memory hierarchy* —
the silent-data-corruption regime of approximate-memory studies. Both
fault channels are driven by one seeded :class:`random.Random` stream,
so a given (spec, point) pair produces the identical fault pattern on
every run, across reruns, and regardless of worker scheduling.

Activation is layered:

1. a *context spec* pushed with :func:`memory_faults` (what sweep
   workers do for points that carry a ``faults=`` field);
2. otherwise, the memory clauses of the global ``REPRO_INJECT``
   environment spec (what ``--inject flip:prob=1e-3`` sets), which
   worker processes inherit with no extra plumbing;
3. :func:`no_memory_faults` suppresses both — precise reference runs
   always execute clean, so injected error is always measured against an
   uncorrupted baseline.

The active canonical spec participates in the result-cache keys (see
:mod:`repro.experiments.common`), so faulty results can never poison the
clean cache and vice versa.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import struct
from typing import Optional, Tuple, Union

from repro.envspec import INJECT_ENV
from repro.faults import spec as spec_mod

Number = Union[int, float]

# INJECT_ENV (the --inject spec carrier) is declared in repro.envspec —
# it is the one environment variable classified `keyed`: its memory
# clauses fold into the result-cache keys through active_memory_spec().

#: Float bit regions selectable with ``region=`` (IEEE-754 double).
_FLOAT_REGIONS = {
    "mantissa": (0, 52),   # flips change magnitude slightly; value stays finite
    "exponent": (52, 63),
    "any": (0, 64),
}


class MemoryFaultModel:
    """Seeded bit-flip / fetch-drop model for one simulator instance.

    ``flip_prob`` is the per-memory-served-value probability of flipping
    ``bits`` random bits; floats flip within ``region`` of the IEEE-754
    pattern (default ``mantissa``, keeping values finite), integers flip
    within the low ``width`` bits. ``drop_prob`` is the per-fetch
    probability that a block fetch is silently lost.
    """

    def __init__(
        self,
        flip_prob: float = 0.0,
        drop_prob: float = 0.0,
        bits: int = 1,
        width: int = 16,
        region: str = "mantissa",
        seed: int = 0,
    ) -> None:
        self.flip_prob = flip_prob
        self.drop_prob = drop_prob
        self.bits = max(1, bits)
        self.width = max(1, width)
        self.region = region if region in _FLOAT_REGIONS else "mantissa"
        self.seed = seed
        self._rng = random.Random(seed)
        self.flips = 0
        self.drops = 0

    @classmethod
    def from_clauses(
        cls, clauses: Tuple[spec_mod.FaultClause, ...]
    ) -> Optional["MemoryFaultModel"]:
        """Build a model from the memory clauses of a spec (or None)."""
        flip_prob = drop_prob = 0.0
        bits, width, region, seed = 1, 16, "mantissa", 0
        seen = False
        for clause in spec_mod.memory_clauses(clauses):
            seen = True
            if clause.kind == "flip":
                flip_prob = float(clause.get("prob", 1e-3))
                bits = int(clause.get("bits", 1))
                width = int(clause.get("width", 16))
                region = str(clause.get("region", "mantissa"))
                seed = int(clause.get("seed", seed))
            elif clause.kind == "drop":
                drop_prob = float(clause.get("prob", 1e-2))
                seed = int(clause.get("seed", seed))
        if not seen:
            return None
        return cls(
            flip_prob=flip_prob,
            drop_prob=drop_prob,
            bits=bits,
            width=width,
            region=region,
            seed=seed,
        )

    # -- fault channels ------------------------------------------------- #

    def corrupt_value(self, value: Number, is_float: bool) -> Tuple[Number, bool]:
        """Possibly flip bits in a memory-served value.

        Returns ``(value, flipped)``; the RNG is consumed exactly once
        per call regardless of outcome, keeping the fault pattern
        independent of where in the run the faults actually land.
        """
        if self.flip_prob <= 0.0 or self._rng.random() >= self.flip_prob:
            return value, False
        self.flips += 1
        if is_float:
            lo, hi = _FLOAT_REGIONS[self.region]
            (pattern,) = struct.unpack("<Q", struct.pack("<d", float(value)))
            for _ in range(self.bits):
                pattern ^= 1 << self._rng.randrange(lo, hi)
            (flipped,) = struct.unpack("<d", struct.pack("<Q", pattern))
            return flipped, True
        flipped_int = int(value)
        for _ in range(self.bits):
            flipped_int ^= 1 << self._rng.randrange(self.width)
        return flipped_int, True

    def drop_fetch(self) -> bool:
        """True when this block fetch is silently lost."""
        if self.drop_prob <= 0.0:
            return False
        if self._rng.random() < self.drop_prob:
            self.drops += 1
            return True
        return False


# --------------------------------------------------------------------- #
# Activation context                                                     #
# --------------------------------------------------------------------- #

#: Context override: None = fall through to the environment spec.
_CONTEXT_SPEC: Optional[str] = None
#: Suppression depth (precise reference runs execute clean).
_SUPPRESS_DEPTH = 0


@contextlib.contextmanager
def memory_faults(spec: str):
    """Activate a memory-fault spec for the duration of the block.

    An empty spec is a no-op context (the environment spec, if any,
    stays in effect) so callers can wrap unconditionally.
    """
    global _CONTEXT_SPEC
    if not spec:
        yield
        return
    previous = _CONTEXT_SPEC
    _CONTEXT_SPEC = spec
    try:
        yield
    finally:
        _CONTEXT_SPEC = previous


@contextlib.contextmanager
def no_memory_faults():
    """Suppress every memory fault source (clean baselines)."""
    global _SUPPRESS_DEPTH
    _SUPPRESS_DEPTH += 1
    try:
        yield
    finally:
        _SUPPRESS_DEPTH -= 1


def active_memory_spec() -> str:
    """The canonical memory-fault spec in effect ("" when none).

    Canonicalisation makes equivalent spellings key-identical, and the
    returned string is exactly what the result-cache keys embed.
    """
    if _SUPPRESS_DEPTH:
        return ""
    raw = _CONTEXT_SPEC if _CONTEXT_SPEC is not None else os.environ.get(INJECT_ENV, "")
    if not raw:
        return ""
    clauses = spec_mod.memory_clauses(spec_mod.parse_spec(raw))
    return spec_mod.canonical_spec(clauses)


def build_memory_model() -> Optional[MemoryFaultModel]:
    """A fresh model for the active spec, or None when clean.

    Each simulator gets its own model (and RNG stream) so fault patterns
    are per-run deterministic whatever the worker scheduling; the stream
    seed mixes the spec's ``seed=`` with a hash of the spec itself so
    distinct specs never share a stream.
    """
    spec_text = active_memory_spec()
    if not spec_text:
        return None
    clauses = spec_mod.parse_spec(spec_text)
    model = MemoryFaultModel.from_clauses(clauses)
    if model is not None:
        digest = int(hashlib.sha256(spec_text.encode("utf-8")).hexdigest()[:8], 16)
        model._rng = random.Random(model.seed ^ digest)
    return model
