"""Deterministic filesystem fault injection for the storage layer.

The persistence tier — the pickled result :mod:`~repro.experiments.
diskcache` and the ``.npy`` column :mod:`~repro.experiments.tracestore`
— promises that a sweep either completes **bit-identical** to a
fault-free run or fails loudly.
This module is how that promise is adversarially exercised: the storage
modules route their I/O through four narrow hooks (:func:`on_write`,
:func:`on_rename`, :func:`on_read`, :func:`damage_published`) plus named
:func:`crash_point` markers at every step of an atomic publish, and the
active ``REPRO_INJECT`` spec (see :mod:`repro.faults.spec`) decides,
deterministically, which operations misbehave and how.

Fault kinds (``STORAGE_KINDS``):

=========  ==============================================================
``torn``   a write persists only its first ``frac`` fraction (crash or
           lost buffer mid-write)
``fsync``  a write "succeeds" but the tail ``frac`` fraction reads back
           as zeros (blocks that never reached the platter)
``corrupt``  one payload byte is XORed with ``xor=`` (silent bit rot);
           fires at write sites by default, or post-publish when the
           clause selects a published site (``site=published``)
``trunc``  a *published* file is truncated to ``frac`` of its length —
           the shape a torn mmap presents to readers
``enospc`` the write raises ``OSError(ENOSPC)``
``eio``    the matching operation raises ``OSError(EIO)`` (select reads
           with ``op=read``, writes with ``op=write``)
``rename`` the publish rename raises ``OSError(EIO)``
``kill``   the process hard-exits (``os._exit``, indistinguishable from
           SIGKILL for consistency purposes) at the crash point whose
           name contains ``site=``
=========  ==============================================================

Selectors shared by every kind: ``target=`` (``cache``/``trace``/
``any``; default ``any``), ``op=`` and ``site=`` (substring
of the dotted operation-site name, e.g. ``op=write`` or
``site=trace.publish.pre_meta``), ``path=`` (substring of the file
path), and a deterministic occurrence window ``at=`` (1-based index of
the first matching operation that fires; default 1) and ``count=``
(how many matching operations fire from ``at``; default 0 = all).
Occurrence counters are per-process and reset with
:func:`reset_counters`, so a given (spec, process) pair replays the
identical fault schedule on every run.

Storage faults are *environmental*, not semantic: a faulted entry heals
as a cache miss and is recomputed, never served wrong. They therefore
fold into **nothing** — :func:`repro.faults.memory.active_memory_spec`
filters them out, so they can never enter a result-cache key.
"""

from __future__ import annotations

import errno
import os
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.faults import spec as spec_mod
from repro.faults.memory import INJECT_ENV

PathLike = Union[str, "os.PathLike[str]"]

#: Exit status of an injected storage ``kill`` (distinct from the engine
#: ``crash`` status 23, so logs attribute a death to the right injector).
KILL_EXIT_STATUS = 24

#: The publish crash points, in publish order, as wired into the storage
#: modules. ``kill:site=<substring>`` matches against these names; the
#: crash-recovery property suite iterates the full list.
CRASH_POINTS: Tuple[str, ...] = (
    "cache.publish.pre_write",
    "cache.publish.pre_rename",
    "cache.publish.post_rename",
    "trace.publish.pre_columns",
    "trace.publish.pre_meta",
    "trace.publish.pre_rename",
    "trace.publish.post_rename",
)

# --------------------------------------------------------------------- #
# Active-spec resolution                                                #
# --------------------------------------------------------------------- #

#: Cache of the parsed storage clauses, keyed by the raw env value so a
#: monkeypatched/changed spec is picked up on the next operation.
_cached_raw: Optional[str] = None
_cached_clauses: Tuple[spec_mod.FaultClause, ...] = ()

#: Per-process occurrence counters: clause canonical form -> operations
#: matched so far (selectors only; the at/count window reads this).
_counts: Dict[str, int] = {}


def active_storage_clauses() -> Tuple[spec_mod.FaultClause, ...]:
    """The storage clauses of the ``REPRO_INJECT`` spec (cached parse)."""
    global _cached_raw, _cached_clauses
    raw = os.environ.get(INJECT_ENV, "")
    if raw != _cached_raw:
        _cached_raw = raw
        _cached_clauses = (
            spec_mod.storage_clauses(spec_mod.parse_spec(raw)) if raw else ()
        )
        _counts.clear()
    return _cached_clauses


def reset_counters() -> None:
    """Forget every occurrence counter (test isolation)."""
    _counts.clear()


# --------------------------------------------------------------------- #
# Selector matching                                                     #
# --------------------------------------------------------------------- #


def _fires(clause: spec_mod.FaultClause, site: str, path: PathLike) -> bool:
    """Whether ``clause`` selects this operation — and, if so, whether
    the occurrence falls inside the clause's deterministic ``at``/
    ``count`` window. Matching occurrences are counted even when outside
    the window, so the window indexes *operations*, not prior fires."""
    target = str(clause.get("target", "any"))
    if target not in ("any", site.split(".", 1)[0]):
        return False
    op = clause.get("op")
    if op is not None and str(op) not in site:
        return False
    wanted_site = clause.get("site")
    if wanted_site is not None and str(wanted_site) not in site:
        return False
    fragment = clause.get("path")
    if fragment is not None and str(fragment) not in str(path):
        return False
    token = clause.canonical()
    occurrence = _counts.get(token, 0) + 1
    _counts[token] = occurrence
    at = int(clause.get("at", 1))  # type: ignore[call-overload, arg-type]
    count = int(clause.get("count", 0))  # type: ignore[call-overload, arg-type]
    if occurrence < at:
        return False
    return count == 0 or occurrence < at + count


def _note(kind: str, site: str, path: PathLike) -> None:
    """Record an injected storage fault in the telemetry surfaces."""
    from repro import telemetry  # late: telemetry -> experiments cycles

    if telemetry.enabled():
        telemetry.metrics().counter(f"storage.fault.{kind}").add(1)
    tracer = telemetry.tracer()
    if tracer is not None:
        tracer.emit("fault.storage", kind=kind, site=site, path=str(path))


# --------------------------------------------------------------------- #
# The injection hooks                                                   #
# --------------------------------------------------------------------- #


def on_write(site: str, path: PathLike, data: bytes) -> bytes:
    """Filter payload bytes through the active write faults.

    Raises ``OSError(ENOSPC/EIO)`` for the failing-syscall kinds;
    returns a mangled payload for ``torn`` (prefix only), ``fsync``
    (tail zeroed) and ``corrupt`` (one byte XORed). The caller writes
    whatever comes back — checksums are computed over the *intended*
    bytes beforehand, which is exactly what lets verify-on-read detect
    the damage.
    """
    clauses = active_storage_clauses()
    if not clauses:
        return data
    for clause in clauses:
        if clause.kind not in ("torn", "fsync", "corrupt", "enospc", "eio"):
            continue
        if not _fires(clause, site, path):
            continue
        _note(clause.kind, site, path)
        if clause.kind == "enospc":
            raise OSError(errno.ENOSPC, "injected ENOSPC", str(path))
        if clause.kind == "eio":
            raise OSError(errno.EIO, "injected EIO", str(path))
        frac = float(clause.get("frac", 0.5))  # type: ignore[arg-type]
        if clause.kind == "torn":
            data = data[: int(len(data) * frac)]
        elif clause.kind == "fsync":
            kept = int(len(data) * frac)
            data = data[:kept] + b"\x00" * (len(data) - kept)
        elif clause.kind == "corrupt":
            data = _flip_byte(data, clause)
    return data


def on_rename(site: str, path: PathLike) -> None:
    """Raise for ``rename`` clauses selecting this publish rename."""
    for clause in active_storage_clauses():
        if clause.kind == "rename" and _fires(clause, site, path):
            _note("rename", site, path)
            raise OSError(errno.EIO, "injected rename failure", str(path))


def on_read(site: str, path: PathLike) -> None:
    """Raise ``OSError(EIO)`` for ``eio`` clauses selecting this read."""
    for clause in active_storage_clauses():
        if clause.kind == "eio" and _fires(clause, site, path):
            _note("eio", site, path)
            raise OSError(errno.EIO, "injected EIO", str(path))


def damage_published(site: str, path: PathLike) -> None:
    """Apply post-publish damage (``trunc``/``corrupt``) to an entry.

    Models media bit rot and crash-truncated files *after* a successful
    atomic publish — the regime checksums-on-read exist for. ``path``
    may be a file or an entry directory (every regular file inside is a
    candidate; ``path=`` selects among them). Never raises: simulated
    rot must not turn into a new writer failure mode.
    """
    clauses = active_storage_clauses()
    if not clauses or not any(c.kind in ("trunc", "corrupt") for c in clauses):
        return
    root = Path(path)
    targets = sorted(p for p in root.rglob("*") if p.is_file()) if root.is_dir() else [root]
    for clause in clauses:
        if clause.kind not in ("trunc", "corrupt"):
            continue
        if clause.kind == "corrupt" and not (
            clause.get("site") is not None or clause.get("op") is not None
        ):
            # An unselective ``corrupt`` already fired at the write site;
            # XOR-ing the same byte again here would cancel the damage.
            # Post-publish rot must be asked for (site=published).
            continue
        for target in targets:
            if not _fires(clause, site, target):
                continue
            _note(clause.kind, site, target)
            try:
                blob = target.read_bytes()
                if clause.kind == "trunc":
                    frac = float(clause.get("frac", 0.5))  # type: ignore[arg-type]
                    blob = blob[: int(len(blob) * frac)]
                else:
                    blob = _flip_byte(blob, clause)
                target.write_bytes(blob)
            except OSError:
                pass


def crash_point(site: str) -> None:
    """Hard-exit at a named publish step when a ``kill`` clause matches.

    ``os._exit`` skips every atexit/finally handler — from the
    filesystem's point of view this is a SIGKILL landing exactly between
    two syscalls of the publish sequence, which is what the
    crash-recovery property suite needs to pin down.
    """
    for clause in active_storage_clauses():
        if clause.kind == "kill" and _fires(clause, site, site):
            _note("kill", site, site)
            os._exit(KILL_EXIT_STATUS)


def _flip_byte(data: bytes, clause: spec_mod.FaultClause) -> bytes:
    """XOR one byte of ``data`` per the clause's ``offset=``/``xor=``."""
    if not data:
        return data
    offset = int(clause.get("offset", -1))  # type: ignore[call-overload, arg-type]
    if offset < 0 or offset >= len(data):
        offset = len(data) // 2
    mask = int(clause.get("xor", 0xFF)) & 0xFF  # type: ignore[call-overload, arg-type]
    mutable = bytearray(data)
    mutable[offset] ^= mask or 0xFF  # xor=0 would be a silent no-op
    return bytes(mutable)


def storage_spec_is_foldable(keys: Iterable[str]) -> bool:
    """True when no storage clause text appears in any cache key.

    A convenience assertion for tests pinning the fold-into-nothing
    contract: storage faults change *whether* an entry survives on disk,
    never *what* a point computes, so their spec text must be absent
    from every result-cache key.
    """
    clauses = active_storage_clauses()
    if not clauses:
        return True
    fragments = [clause.canonical() for clause in clauses]
    return not any(fragment in key for key in keys for fragment in fragments)
