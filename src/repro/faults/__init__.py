"""Deterministic fault injection for the engine, simulator and storage.

Three fault families share one spec grammar (see :mod:`repro.faults.spec`):

* **engine faults** (``crash``/``hang``/``raise``/``flaky``) fire inside
  sweep workers to exercise the supervision machinery of
  :mod:`repro.experiments.sweep` — retries, per-point timeouts,
  ``BrokenProcessPool`` recovery and serial degradation;
* **memory faults** (``flip``/``drop``) perturb the simulated memory
  hierarchy — bit flips in fetched values, silently lost block fetches —
  so approximator confidence/error behaviour under silent data
  corruption is measurable (the ``ablate-memory-faults`` experiment);
* **storage faults** (``torn``/``fsync``/``corrupt``/``trunc``/
  ``enospc``/``eio``/``rename``/``kill``) perturb the persistence layer
  (:mod:`repro.faults.fsfaults`) to exercise the crash-consistency
  machinery of the disk cache and the trace store.

Activate globally with ``--inject SPEC`` (environment-carried, so worker
processes inherit it) or per sweep point via ``SweepPoint.faults``.
"""

from repro.faults.fsfaults import (
    CRASH_POINTS,
    KILL_EXIT_STATUS,
    active_storage_clauses,
    storage_spec_is_foldable,
)
from repro.faults.injector import (
    CRASH_EXIT_STATUS,
    activate,
    active_engine_clauses,
    before_point,
    corrupt_entry,
    deactivate,
)
from repro.faults.memory import (
    INJECT_ENV,
    MemoryFaultModel,
    active_memory_spec,
    build_memory_model,
    memory_faults,
    no_memory_faults,
)
from repro.faults.spec import (
    ENGINE_KINDS,
    MEMORY_KINDS,
    STORAGE_KINDS,
    FaultClause,
    canonical_spec,
    engine_clauses,
    memory_clauses,
    parse_spec,
    storage_clauses,
)

__all__ = [
    "CRASH_EXIT_STATUS",
    "CRASH_POINTS",
    "ENGINE_KINDS",
    "FaultClause",
    "INJECT_ENV",
    "KILL_EXIT_STATUS",
    "MEMORY_KINDS",
    "MemoryFaultModel",
    "STORAGE_KINDS",
    "activate",
    "active_engine_clauses",
    "active_memory_spec",
    "active_storage_clauses",
    "before_point",
    "build_memory_model",
    "canonical_spec",
    "corrupt_entry",
    "deactivate",
    "engine_clauses",
    "memory_clauses",
    "memory_faults",
    "no_memory_faults",
    "parse_spec",
    "storage_clauses",
    "storage_spec_is_foldable",
]
