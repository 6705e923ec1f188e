"""Parsing and matching of fault-injection specifications.

A *spec* is a compact string naming one or more deterministic faults,
e.g. ``"crash:workload=canneal,mode=lva"`` or
``"flip:prob=0.001,seed=7;drop:prob=0.01"``. Clauses are separated by
``;``; each clause is ``kind`` optionally followed by ``:key=value``
parameters. Two families exist:

* **engine faults** (:data:`ENGINE_KINDS`) fire inside sweep workers and
  exercise the supervision paths of the experiment engine — crashing the
  worker process, hanging it, or raising deterministically;
* **memory faults** (:data:`MEMORY_KINDS`) perturb the simulated memory
  hierarchy itself — flipping bits in fetched values or dropping block
  fetches — so approximator behaviour under silent data corruption can
  be measured as an ablation;
* **storage faults** (:data:`STORAGE_KINDS`) perturb the persistence
  layer — torn writes, failed renames, ENOSPC/EIO, lost fsyncs,
  truncated mmaps, byte corruption, and hard kills at publish crash
  points — exercising the crash-consistency machinery of the disk
  cache, trace store and run journal (see
  :mod:`repro.faults.fsfaults`). Storage faults never change *what* a
  run computes (a corrupted entry heals as a miss and is recomputed),
  so, unlike memory faults, they fold into **nothing**: they must never
  enter cache keys.

Engine clauses select which sweep points they apply to via parameters:
``workload=``, ``mode=``, ``seed=``, ``small=``, ``kind=``
(``technique``/``precise``/``any``, default ``technique``) — plus any
:class:`~repro.core.config.ApproximatorConfig` field name
(e.g. ``mantissa_drop_bits=11``) for single-point precision.
Storage clauses select I/O operations instead: ``target=``
(``cache``/``trace``/``journal``/``any``), ``op=``/``site=`` (substring
of the operation site name), ``path=`` (substring of the file path),
and a deterministic occurrence window ``at=``/``count=``.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Clause kinds that fire in sweep workers (engine supervision faults).
ENGINE_KINDS = frozenset({"crash", "hang", "raise", "flaky"})

#: Clause kinds that perturb the simulated memory hierarchy.
MEMORY_KINDS = frozenset({"flip", "drop"})

#: Clause kinds that perturb the storage layer (see repro.faults.fsfaults):
#: ``torn`` (partial write), ``fsync`` (lost write: tail reads back as
#: zeros), ``corrupt`` (byte flip), ``trunc`` (published file truncated),
#: ``enospc``/``eio`` (failing syscalls), ``rename`` (failed publish
#: rename), ``kill`` (hard process exit at a named publish crash point).
STORAGE_KINDS = frozenset(
    {"torn", "fsync", "corrupt", "trunc", "enospc", "eio", "rename", "kill"}
)


def _parse_value(text: str) -> object:
    """Parse a clause parameter: int, float, bool or bare string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


@dataclasses.dataclass(frozen=True)
class FaultClause:
    """One parsed fault: a kind plus its (sorted, hashable) parameters."""

    kind: str
    params: Tuple[Tuple[str, object], ...] = ()

    def get(self, name: str, default: object = None) -> object:
        for key, value in self.params:
            if key == name:
                return value
        return default

    @property
    def is_engine(self) -> bool:
        return self.kind in ENGINE_KINDS

    @property
    def is_memory(self) -> bool:
        return self.kind in MEMORY_KINDS

    @property
    def is_storage(self) -> bool:
        return self.kind in STORAGE_KINDS

    def canonical(self) -> str:
        """Re-serialised clause text (stable: params are sorted)."""
        if not self.params:
            return self.kind
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}:{inner}"

    # -- engine-clause point selection --------------------------------- #

    _SELECTORS: ClassVar[Tuple[str, ...]] = ("workload", "mode", "seed", "small", "kind")

    def matches(
        self,
        point_kind: str,
        workload: str,
        mode: Optional[str],
        seed: int,
        small: bool,
        config: object = None,
    ) -> bool:
        """True when this engine clause selects the given sweep point.

        ``config`` is the point's ApproximatorConfig (or None); any
        parameter that is neither a known selector nor a retry count is
        treated as a config field name and compared against it.
        """
        wanted_kind = self.get("kind", "technique")
        if wanted_kind != "any" and wanted_kind != point_kind:
            return False
        for key, value in self.params:
            if key in ("kind", "fails", "seconds"):
                continue
            if key == "workload":
                if value != workload:
                    return False
            elif key == "mode":
                if mode is None or str(value).lower() != mode.lower():
                    return False
            elif key == "seed":
                if value != seed:
                    return False
            elif key == "small":
                if bool(value) != small:
                    return False
            else:  # an ApproximatorConfig field
                if config is None or getattr(config, str(key), None) != value:
                    return False
        return True


def parse_spec(spec: str) -> Tuple[FaultClause, ...]:
    """Parse a fault spec string into clauses; raises on unknown kinds."""
    clauses: List[FaultClause] = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, _, rest = chunk.partition(":")
        kind = kind.strip().lower()
        if kind not in ENGINE_KINDS | MEMORY_KINDS | STORAGE_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {kind!r}; known: "
                f"{', '.join(sorted(ENGINE_KINDS | MEMORY_KINDS | STORAGE_KINDS))}"
            )
        params: Dict[str, object] = {}
        for pair in rest.split(","):
            pair = pair.strip()
            if not pair:
                continue
            if "=" not in pair:
                raise ConfigurationError(f"malformed fault parameter {pair!r}")
            key, _, value = pair.partition("=")
            params[key.strip()] = _parse_value(value.strip())
        clauses.append(FaultClause(kind=kind, params=tuple(sorted(params.items()))))
    return tuple(clauses)


def canonical_spec(clauses: Tuple[FaultClause, ...]) -> str:
    """A stable textual form of a clause set (participates in cache keys)."""
    return ";".join(clause.canonical() for clause in sorted(clauses, key=lambda c: c.canonical()))


def memory_clauses(clauses: Tuple[FaultClause, ...]) -> Tuple[FaultClause, ...]:
    return tuple(c for c in clauses if c.is_memory)


def engine_clauses(clauses: Tuple[FaultClause, ...]) -> Tuple[FaultClause, ...]:
    return tuple(c for c in clauses if c.is_engine)


def storage_clauses(clauses: Tuple[FaultClause, ...]) -> Tuple[FaultClause, ...]:
    return tuple(c for c in clauses if c.is_storage)
