"""`repro.envspec` — the declared-environment registry.

Every ``REPRO_*`` environment variable the runtime reads is registered
here exactly once, with a *cache-key classification* that states its
relationship to the reproduction's one global correctness invariant:
anything that can change a simulated result must fold into the
result-cache / trace-store keys, and everything deliberately omitted
from the keys must be provably behavior-neutral.

Classifications:

``keyed``
    The variable's value can change computed results, and it therefore
    participates in the cache keys (``keyed_via`` names the key function
    that folds it in). Example: ``REPRO_INJECT`` memory-fault clauses.
``neutral``
    The variable changes *how* results are stored or verified (cache
    location, LRU bound, checksums) but never the result bits.
    Neutrality is not taken on faith: ``pinned_by`` names the test
    module that pins the equivalence.
``capture-only``
    The variable only configures observability artifacts (telemetry,
    traces, profiles); results are bit-identical with it on or off,
    pinned by the disabled-overhead contract tests.

The runtime readers import their variable names from this module (the
string constants below), so a read site and its registration can never
drift apart — and ``lva-lint``'s LVA007 dataflow rule statically
verifies that every read goes through a registered constant, that
``keyed`` values actually reach a key function, and that ``neutral`` /
``capture-only`` values never do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: The classification vocabulary (see module docstring).
CLASSIFICATIONS: Tuple[str, ...] = ("keyed", "neutral", "capture-only")


@dataclass(frozen=True, slots=True)
class EnvVar:
    """One registered environment variable.

    Attributes:
        name: The full ``REPRO_*`` variable name.
        classification: ``keyed`` | ``neutral`` | ``capture-only``.
        description: One-line effect summary (feeds the README table).
        pinned_by: For ``neutral``/``capture-only``: the test module
            pinning behavior-neutrality. Empty for ``keyed``.
        keyed_via: For ``keyed``: the key function folding the value in.
    """

    name: str
    classification: str
    description: str
    pinned_by: str = ""
    keyed_via: str = ""


_REGISTRY: Dict[str, EnvVar] = {}


def _declare(
    name: str,
    classification: str,
    description: str,
    *,
    pinned_by: str = "",
    keyed_via: str = "",
) -> str:
    """Register one variable; returns its name for the reader constants."""
    if not name.startswith("REPRO_"):
        raise ValueError(f"environment variable {name!r} is not REPRO_-prefixed")
    if classification not in CLASSIFICATIONS:
        raise ValueError(
            f"{name}: classification {classification!r} is not one of "
            f"{CLASSIFICATIONS}"
        )
    if name in _REGISTRY:
        raise ValueError(f"environment variable {name!r} registered twice")
    if classification == "keyed" and not keyed_via:
        raise ValueError(f"{name}: keyed variables must name their key function")
    if classification != "keyed" and not pinned_by:
        raise ValueError(f"{name}: {classification} variables must name a pinning test")
    _REGISTRY[name] = EnvVar(
        name=name,
        classification=classification,
        description=description,
        pinned_by=pinned_by,
        keyed_via=keyed_via,
    )
    return name


# --------------------------------------------------------------------- #
# The registry — one declaration per variable, grouped by subsystem.    #
# --------------------------------------------------------------------- #

# Storage (repro.experiments.diskcache / tracestore / integrity / common).
CACHE_DIR_ENV = _declare(
    "REPRO_CACHE_DIR",
    "neutral",
    "root of the result cache and trace store (default ~/.cache/repro-lva)",
    pinned_by="tests/experiments/test_diskcache.py",
)
NO_CACHE_ENV = _declare(
    "REPRO_NO_CACHE",
    "neutral",
    "disable the result cache and trace store together",
    pinned_by="tests/experiments/test_diskcache.py",
)
STORE_VERIFY_ENV = _declare(
    "REPRO_STORE_VERIFY",
    "neutral",
    "set to 0 to skip checksum verification when reading cached artifacts",
    pinned_by="tests/experiments/test_storage_chaos.py",
)

# Fault injection (repro.faults).
INJECT_ENV = _declare(
    "REPRO_INJECT",
    "keyed",
    "deterministic fault-injection spec (engine / memory / storage clauses)",
    keyed_via="repro.faults.memory.active_memory_spec",
)

# Predictor registry (repro.predictors).
PREDICTOR_ENV = _declare(
    "REPRO_PREDICTOR",
    "keyed",
    "override the registry predictor for Mode.PREDICTOR runs (lva, lvp, clp, hybrid)",
    keyed_via="repro.predictors.registry.active_override",
)

# Observability (repro.telemetry).
TELEMETRY_ENV = _declare(
    "REPRO_TELEMETRY",
    "capture-only",
    "truthy value enables the metrics registry and sim hooks",
    pinned_by="tests/telemetry/test_disabled_overhead.py",
)
TRACE_ENV = _declare(
    "REPRO_TRACE",
    "capture-only",
    "path of the JSONL trace file (setting it implies telemetry on)",
    pinned_by="tests/telemetry/test_disabled_overhead.py",
)
TELEMETRY_INTERVAL_ENV = _declare(
    "REPRO_TELEMETRY_INTERVAL",
    "capture-only",
    "instructions per interval snapshot (default 100000)",
    pinned_by="tests/telemetry/test_disabled_overhead.py",
)
TELEMETRY_SAMPLE_ENV = _declare(
    "REPRO_TELEMETRY_SAMPLE",
    "capture-only",
    "per-decision trace sampling rate (default 1024; 1 = every call)",
    pinned_by="tests/telemetry/test_disabled_overhead.py",
)
TELEMETRY_HOT_ENV = _declare(
    "REPRO_TELEMETRY_HOT",
    "capture-only",
    "opt per-load (hot-path) profiler spans in; read once at import",
    pinned_by="tests/telemetry/test_disabled_overhead.py",
)


# --------------------------------------------------------------------- #
# Lookup and rendering                                                  #
# --------------------------------------------------------------------- #


def get(name: str) -> EnvVar:
    """The registration of ``name``; raises KeyError when undeclared."""
    return _REGISTRY[name]


def lookup(name: str) -> "EnvVar | None":
    """The registration of ``name``, or None when undeclared."""
    return _REGISTRY.get(name)


def all_vars() -> Tuple[EnvVar, ...]:
    """Every registered variable, sorted by name."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def classification(name: str) -> str:
    """The cache-key class of ``name``; raises KeyError when undeclared."""
    return _REGISTRY[name].classification


def markdown_flag_table() -> str:
    """The README environment-variable table, generated from the registry.

    One row per variable: name, effect, cache-key class (plus what pins
    or folds it). Regenerate with
    ``python -c "from repro import envspec; print(envspec.markdown_flag_table())"``.
    """
    lines: List[str] = [
        "| variable | effect | cache-key class |",
        "|---|---|---|",
    ]
    for var in all_vars():
        if var.classification == "keyed":
            detail = f"`keyed` (folds in via `{var.keyed_via}`)"
        else:
            detail = f"`{var.classification}` (pinned by `{var.pinned_by}`)"
        lines.append(f"| `{var.name}` | {var.description} | {detail} |")
    return "\n".join(lines)
