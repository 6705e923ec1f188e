"""Static invariant checking for the LVA reproduction (``lva-lint``).

The evaluation pipeline rests on invariants that ordinary linters do not
know about: simulated results must be bit-deterministic (rerunning an
interrupted sweep promises bit-identical tables), every configuration
knob must be folded into the disk-cache keys, hot-path classes must stay
allocation-lean, and worker-executed code must stay picklable and free
of hidden module state.
This package enforces them *statically*, before a single sweep point runs:

========  ============================================================
LVA001    determinism — no unseeded randomness, wall-clock reads,
          ``os.urandom``/``uuid4``, ``id()``-keyed state or direct
          set iteration inside simulation packages
LVA002    cache-key completeness — every field of a sweep-point
          dataclass must be read by its ``*disk_key`` function
LVA003    hot-path discipline — ``slots=True`` on hot-path dataclasses;
          no closures/comprehensions in per-load methods
LVA004    worker safety — only module-level functions cross the
          ``ProcessPoolExecutor`` boundary; no ``global`` mutation in
          worker entry points
LVA005    stats consistency — counter writes must match declared
          ``*Stats`` fields, and every declared counter must be written
LVA006    guarded hot-path telemetry — hook calls in per-load methods
          stay behind ``if self._tel is not None``; no telemetry
          module-API calls on the hot path
LVA007    env-influence soundness — every ``REPRO_*`` read resolves to
          a :mod:`repro.envspec` constant; ``keyed`` variables provably
          reach a cache-key function, ``neutral``/``capture-only``
          variables provably do not (whole-program taint)
LVA008    worker-path determinism — the LVA001 checks, extended
          interprocedurally along call paths from worker entry points
          and simulator entry points
LVA009    mmap write discipline — no stores into arrays obtained from
          ``np.load(mmap_mode=...)`` or ``TraceStore.get`` (the packed
          columns are shared read-only across processes)
========  ============================================================

Violations are suppressed per line with ``# lva: ignore[LVA001]`` (or a
blanket ``# lva: ignore``). The engine is exposed three ways: the
``lva-lint`` console script (:mod:`repro.analysis.cli`), the library API
(:func:`run_paths` / :func:`check_source`), and a pytest gate
(``tests/analysis/test_self_clean.py``) asserting the tree is clean.
"""

from __future__ import annotations

from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig
from repro.analysis.core import (
    ModuleInfo,
    ProjectContext,
    Rule,
    Violation,
    all_rules,
    register,
    rule_ids,
)
from repro.analysis.engine import (
    check_source,
    check_sources,
    discover_files,
    run_modules_raw,
    run_paths,
    stale_suppressions,
)
from repro.analysis.report import render_text, summary_line
from repro.analysis.sarif import render_sarif, to_sarif

__all__ = [
    "AnalysisConfig",
    "DEFAULT_CONFIG",
    "ModuleInfo",
    "ProjectContext",
    "Rule",
    "Violation",
    "all_rules",
    "check_source",
    "check_sources",
    "discover_files",
    "register",
    "render_sarif",
    "render_text",
    "rule_ids",
    "run_modules_raw",
    "run_paths",
    "stale_suppressions",
    "summary_line",
    "to_sarif",
]
