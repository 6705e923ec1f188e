"""A memory-mapped, cross-process store of packed phase-2 traces.

Trace capture is the expensive half of the paper's two-phase methodology:
every full-system sweep point needs the same (workload, seed, scale)
trace, and before this store existed each worker process re-ran the
workload to re-capture it. The store persists each captured trace once as
a directory of plain ``.npy`` column files (one per
:data:`repro.sim.trace.TRACE_COLUMNS` entry) plus a ``meta.json``;
readers open the columns with ``np.load(..., mmap_mode="r")``, so every
worker on the machine shares the same physical page-cache bytes
zero-copy instead of holding a private object-list copy.

Layout and invalidation rules:

* Entries live under ``<cache-dir>/traces/<key[:2]>/<key>/`` beside the
  result :mod:`~repro.experiments.diskcache` (same ``REPRO_CACHE_DIR``
  override, same ``REPRO_NO_CACHE`` kill-switch).
* **Keys** are SHA-256 content hashes of (workload, seed, scale, workload
  params, :data:`TRACE_SCHEMA_VERSION`): bumping the schema version —
  required whenever the packed column set or the capture semantics
  change — orphans every older entry instead of silently replaying stale
  science.
* Writers publish atomically: columns are written into a temporary
  sibling directory (``meta.json`` last) and ``os.rename``\\ d into
  place, so readers can never observe a torn entry; a racing duplicate
  writer loses the rename and discards its copy. Each publish carries a
  generation stamp, and ``meta.json`` records a CRC32 per column plus a
  self-checksum (:mod:`repro.experiments.integrity`).
* A corrupt, truncated or schema-mismatched entry counts as a **miss**
  and is deleted, so the slot heals on the next capture. Checksum
  failures are additionally reported (warn-once +
  ``storage.corrupt.trace`` counter) — a damaged column is never
  replayed into results. Verify-on-read can be disabled with
  ``REPRO_STORE_VERIFY=0``.

All I/O routes through the :mod:`repro.faults.fsfaults` hooks, so
``REPRO_INJECT`` storage clauses can deterministically tear column
writes, corrupt published bytes, fail the publish rename or kill the
process at any step of the publish sequence.

The store is an accelerator, never a correctness dependency: simulations
are deterministic, so a trace served from disk is bit-identical to
re-capturing it.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional

from repro import telemetry
from repro.experiments import diskcache, integrity
from repro.faults import fsfaults

if TYPE_CHECKING:
    from repro.sim.trace import PackedTrace

#: Bump when the packed column set or the trace-capture semantics change:
#: every existing on-disk trace becomes unreachable (different key).
#: v2: meta.json carries per-column CRC32s, a generation stamp and a
#: self-checksum; columns are verified on read.
TRACE_SCHEMA_VERSION = 2

#: The per-entry metadata file, written last — its presence marks a
#: complete entry.
META_NAME = "meta.json"


def store_root() -> Path:
    """Where trace entries live: ``<result-cache-dir>/traces``."""
    return diskcache.default_cache_dir() / "traces"


def trace_key(
    workload: str, seed: int, small: bool, params: Optional[dict] = None
) -> str:
    """Content hash identifying one captured trace.

    Captures are precise and clean (fault injection never applies, see
    :func:`repro.experiments.common.capture_trace`), so the key has no
    mode/config/fault components — only what defines the workload run.
    """
    return diskcache.point_key(
        "trace",
        workload=workload,
        seed=seed,
        small=small,
        params=tuple(sorted((params or {}).items())),
        trace_schema=TRACE_SCHEMA_VERSION,
    )


def _count(name: str, amount: int = 1) -> None:
    """Bump a trace-store metric when telemetry is enabled."""
    if telemetry.enabled():
        telemetry.metrics().counter(name).add(amount)


@dataclass
class TraceStoreStats:
    """Hit/miss/store counters for one process's view of the store."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    bytes_mapped: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "bytes_mapped": self.bytes_mapped,
        }


@dataclass
class TraceStore:
    """One directory of packed-trace entries, one subdirectory per key."""

    directory: Path = field(default_factory=store_root)
    stats: TraceStoreStats = field(default_factory=TraceStoreStats)
    #: Set after the first failed store: the directory is unwritable, so
    #: further puts are skipped instead of failing per capture.
    _broken: bool = field(default=False, repr=False)

    def _entry_dir(self, key: str) -> Path:
        # Same two-level fan-out as the result cache.
        return self.directory / key[:2] / key

    # ------------------------------------------------------------------ #
    # Reads                                                              #
    # ------------------------------------------------------------------ #

    def get(self, key: str, mmap: bool = True) -> Optional[PackedTrace]:
        """The stored packed trace, or None when absent or unreadable.

        Columns are opened with ``mmap_mode="r"`` (zero-copy,
        shared across processes through the page cache) unless ``mmap``
        is False. Corrupt or schema-mismatched entries count as misses
        and are deleted so the slot heals on the next capture.
        """
        import numpy as np

        from repro.sim.trace import TRACE_COLUMNS, PackedTrace

        entry = self._entry_dir(key)
        try:
            # A missing meta.json means "no entry" (it is written last, so
            # its presence marks completeness); anything failing past this
            # point is a damaged entry and is deleted.
            fsfaults.on_read("trace.meta.read", entry / META_NAME)
            with open(entry / META_NAME, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            _count("trace.store.miss")
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.stats.misses += 1
            _count("trace.store.miss")
            integrity.report_corruption("trace", entry / META_NAME, "meta-unreadable")
            shutil.rmtree(entry, ignore_errors=True)
            return None
        if not integrity.verify_record(meta):
            # A meta that parses but fails its self-checksum is damage,
            # not a schema generation gap — report before healing.
            self.stats.misses += 1
            _count("trace.store.miss")
            integrity.report_corruption("trace", entry / META_NAME, "meta-checksum")
            shutil.rmtree(entry, ignore_errors=True)
            return None
        try:
            if meta.get("trace_schema") != TRACE_SCHEMA_VERSION:
                raise ValueError("trace schema mismatch")
            length = int(meta["events"])
            checksums = meta.get("checksums", {})
            verify = integrity.verify_enabled()
            arrays: Dict[str, np.ndarray] = {}
            for name, dtype in TRACE_COLUMNS:
                column_path = entry / f"{name}.npy"
                fsfaults.on_read("trace.column.read", column_path)
                if verify:
                    expected = checksums.get(name)
                    if expected is None or integrity.crc32_file(column_path) != expected:
                        integrity.report_corruption("trace", column_path, "column-checksum")
                        raise ValueError(f"column {name!r} failed its checksum")
                # Zero-length files cannot be mmapped; tiny anyway.
                mode = "r" if mmap and length else None
                column = np.load(column_path, mmap_mode=mode, allow_pickle=False)
                if (
                    column.ndim != 1
                    or len(column) != length
                    or column.dtype != np.dtype(dtype)
                ):
                    raise ValueError(f"column {name!r} does not match meta")
                arrays[name] = column
            packed = PackedTrace(**arrays)
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.misses += 1
            _count("trace.store.miss")
            shutil.rmtree(entry, ignore_errors=True)
            return None
        self.stats.hits += 1
        self.stats.bytes_mapped += packed.nbytes
        _count("trace.store.hit")
        _count("trace.store.bytes_mapped", packed.nbytes)
        return packed

    def has(self, key: str) -> bool:
        """Whether a complete, schema-current entry exists for ``key``."""
        try:
            with open(self._entry_dir(key) / META_NAME, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return False
        return (
            meta.get("trace_schema") == TRACE_SCHEMA_VERSION
            and integrity.verify_record(meta)
        )

    # ------------------------------------------------------------------ #
    # Writes                                                             #
    # ------------------------------------------------------------------ #

    def put(self, key: str, packed: PackedTrace) -> None:
        """Persist ``packed`` under ``key``; failures warn once.

        Columns are written into a temporary sibling directory
        (``meta.json`` last) which is renamed into place; losing the
        rename race to a concurrent writer is a silent no-op, since the
        winner wrote identical bytes.
        """
        import numpy as np

        from repro.sim.trace import TRACE_COLUMNS

        if self._broken:
            return
        entry = self._entry_dir(key)
        if self.has(key):
            return
        try:
            entry.parent.mkdir(parents=True, exist_ok=True)
            generation = integrity.next_generation()
            tmp = Path(
                tempfile.mkdtemp(
                    dir=entry.parent, prefix=f".{key[:8]}-g{generation}-", suffix=".tmp"
                )
            )
            try:
                fsfaults.crash_point("trace.publish.pre_columns")
                checksums: Dict[str, int] = {}
                for name, column in packed.columns().items():
                    # Serialise to bytes first: the checksum covers the
                    # *intended* bytes, and injected write faults mangle
                    # only what lands on disk.
                    buffer = io.BytesIO()
                    np.save(buffer, np.ascontiguousarray(column), allow_pickle=False)
                    blob = buffer.getvalue()
                    checksums[name] = integrity.crc32_bytes(blob)
                    column_path = tmp / f"{name}.npy"
                    blob = fsfaults.on_write("trace.column.write", column_path, blob)
                    with open(column_path, "wb") as handle:
                        handle.write(blob)
                fsfaults.crash_point("trace.publish.pre_meta")
                meta = integrity.seal_record(
                    {
                        "trace_schema": TRACE_SCHEMA_VERSION,
                        "events": len(packed),
                        "columns": [name for name, _ in TRACE_COLUMNS],
                        "checksums": checksums,
                        "generation": generation,
                    }
                )
                meta_blob = json.dumps(meta).encode("utf-8")
                meta_blob = fsfaults.on_write("trace.meta.write", tmp / META_NAME, meta_blob)
                with open(tmp / META_NAME, "wb") as handle:
                    handle.write(meta_blob)
                fsfaults.crash_point("trace.publish.pre_rename")
                fsfaults.on_rename("trace.entry.rename", entry)
                os.rename(tmp, entry)
                fsfaults.crash_point("trace.publish.post_rename")
            except OSError:
                shutil.rmtree(tmp, ignore_errors=True)
                if self.has(key):
                    return  # lost the publish race; the winner's entry serves
                raise
        except OSError as exc:
            self._broken = True
            warnings.warn(
                f"trace store at {self.directory} is not writable ({exc}); "
                f"traces will be re-captured instead of shared",
                RuntimeWarning,
                stacklevel=2,
            )
            return
        self.stats.stores += 1
        _count("trace.store.store")
        fsfaults.damage_published("trace.entry.published", entry)

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""
        removed = 0
        if not self.directory.exists():
            return removed
        for entry in self.directory.glob("*/*"):
            if not entry.is_dir():
                continue
            shutil.rmtree(entry, ignore_errors=True)
            removed += 1
        return removed

    def __len__(self) -> int:
        if not self.directory.exists():
            return 0
        return sum(1 for entry in self.directory.glob(f"*/*/{META_NAME}"))


# --------------------------------------------------------------------- #
# Process-wide default instance                                         #
# --------------------------------------------------------------------- #

_ACTIVE: Optional[TraceStore] = None
_ACTIVE_DIR: Optional[Path] = None


def active_store() -> Optional[TraceStore]:
    """The process-wide store, or None when caching is disabled.

    Follows the result cache's enablement exactly (``REPRO_NO_CACHE``,
    ``--no-cache``, ``REPRO_CACHE_DIR``), re-resolving the directory from
    the environment on every call so monkeypatched tests and forked
    workers see the configuration without extra plumbing.
    """
    global _ACTIVE, _ACTIVE_DIR
    if diskcache.active_cache() is None:
        return None
    directory = store_root()
    if _ACTIVE is None or _ACTIVE_DIR != directory:
        _ACTIVE = TraceStore(directory=directory)
        _ACTIVE_DIR = directory
    return _ACTIVE
