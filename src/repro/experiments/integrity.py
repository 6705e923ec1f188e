"""Content-integrity primitives shared by the storage layer.

DiskCache entries and TraceStore columns and metadata all carry
checksums so that silent on-disk damage — bit rot, a lost fsync, a
crash-truncated file — is *detected* on read instead of replayed into
results. The policy everywhere is the same: a failed check degrades to a
warn-once + ``storage.corrupt.<subsystem>`` telemetry counter and the
entry heals as a miss (or is quarantined by ``lva-fsck``); a wrong
result is never served.

Three things live here:

* **framing** for single-blob artifacts (cache entries): a fixed magic,
  a CRC32 and the payload length prefix the pickle bytes, so torn,
  zero-filled and bit-flipped blobs all fail closed
  (:func:`frame`/:func:`unframe`);
* **record checksums** for JSON artifacts (trace meta):
  CRC32 over the canonical ``sort_keys`` serialisation minus the
  ``crc`` field itself (:func:`seal_record`/:func:`verify_record`);
* **corruption reporting** (:func:`report_corruption`) and the
  generation stamp for atomic publishes (:func:`next_generation`).

This module deliberately imports nothing from the storage modules so it
can sit below both.
"""

from __future__ import annotations

import errno
import itertools
import json
import os
import struct
import sys
import zlib
from pathlib import Path
from typing import Any, Dict, Optional, Set, Union

from repro.envspec import STORE_VERIFY_ENV

PathLike = Union[str, "os.PathLike[str]"]

#: Magic prefixing every framed cache entry. The trailing byte is the
#: cache schema generation of the *frame format* (not the entry schema,
#: which lives inside the payload): legacy raw-pickle entries fail the
#: magic check and are reported as schema-mismatch, not corruption.
MAGIC = b"LVAC\x02\n"

#: ``<magic><crc32 u32 le><payload length u32 le>``
_HEADER = struct.Struct("<II")

#: Env var disabling verify-on-read (checksums are always *written*);
#: declared (with its cache-key classification) in :mod:`repro.envspec`.
VERIFY_ENV = STORE_VERIFY_ENV


class IntegrityError(ValueError):
    """A framed blob or sealed record failed its integrity check.

    ``reason`` is one of ``"magic"`` (wrong/old frame format),
    ``"length"`` (torn blob: fewer payload bytes than the header
    promises) or ``"checksum"`` (bytes present but damaged).
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(f"integrity check failed ({reason})" + (f": {detail}" if detail else ""))
        self.reason = reason


def verify_enabled() -> bool:
    """Whether verify-on-read is active (default yes; ``0`` disables)."""
    return os.environ.get(VERIFY_ENV, "1") != "0"


# --------------------------------------------------------------------- #
# Blob framing (cache entries)                                          #
# --------------------------------------------------------------------- #


def crc32_bytes(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def crc32_file(path: PathLike, chunk_size: int = 1 << 20) -> int:
    """CRC32 of a file's contents, chunked so mmapped columns stay cheap."""
    crc = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    return crc & 0xFFFFFFFF


def frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in the magic + CRC32 + length header."""
    return MAGIC + _HEADER.pack(crc32_bytes(payload), len(payload)) + payload


def unframe(blob: bytes) -> bytes:
    """Strip and verify the frame; raises :class:`IntegrityError`."""
    header_end = len(MAGIC) + _HEADER.size
    if len(blob) < header_end or not blob.startswith(MAGIC):
        raise IntegrityError("magic", "not a framed entry")
    crc, length = _HEADER.unpack(blob[len(MAGIC) : header_end])
    payload = blob[header_end:]
    if len(payload) != length:
        raise IntegrityError("length", f"expected {length} payload bytes, found {len(payload)}")
    if crc32_bytes(payload) != crc:
        raise IntegrityError("checksum", "payload bytes do not match recorded CRC32")
    return payload


# --------------------------------------------------------------------- #
# Record checksums (trace meta)                                         #
# --------------------------------------------------------------------- #


def record_crc(record: Dict[str, Any]) -> int:
    """CRC32 of a JSON record's canonical form, ignoring its ``crc``."""
    body = {k: v for k, v in record.items() if k != "crc"}
    encoded = json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return crc32_bytes(encoded)


def seal_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Return ``record`` with its ``crc`` field (re)computed."""
    sealed = dict(record)
    sealed["crc"] = record_crc(record)
    return sealed


def verify_record(record: Dict[str, Any]) -> bool:
    """Whether a sealed record's ``crc`` matches its contents."""
    stored = record.get("crc")
    return isinstance(stored, int) and stored == record_crc(record)


# --------------------------------------------------------------------- #
# Corruption reporting                                                  #
# --------------------------------------------------------------------- #

_WARNED: Set[str] = set()


def report_corruption(subsystem: str, path: PathLike, reason: str) -> None:
    """Count + warn-once that a storage artifact failed verification.

    ``subsystem`` is ``cache`` or ``trace``; the counter is
    ``storage.corrupt.<subsystem>`` and the stderr warning fires once
    per subsystem per process (individual paths go to the trace stream,
    which is cheap and append-only).
    """
    from repro import telemetry

    if telemetry.enabled():
        telemetry.metrics().counter(f"storage.corrupt.{subsystem}").add(1)
    tracer = telemetry.tracer()
    if tracer is not None:
        tracer.emit("storage.corrupt", subsystem=subsystem, path=str(path), reason=reason)
    if subsystem not in _WARNED:
        _WARNED.add(subsystem)
        print(
            f"repro: warning: corrupt {subsystem} entry detected ({reason}): {path} "
            f"— healing as a miss; run lva-fsck for a full scan",
            file=sys.stderr,
        )


def reset_warnings() -> None:
    """Forget which subsystems already warned (test isolation)."""
    _WARNED.clear()


# --------------------------------------------------------------------- #
# Generation stamps + quarantine                                        #
# --------------------------------------------------------------------- #

_SEQ = itertools.count(1)


def next_generation() -> str:
    """A per-publish generation stamp, unique within and across processes.

    Embedded in tmp names and trace meta so a half-published entry is
    attributable to its writer and never collides with a concurrent
    publisher of the same key.
    """
    return f"{os.getpid()}-{next(_SEQ)}"


#: Name of the quarantine subtree ``lva-fsck --repair`` moves bad
#: entries into (and every scanner skips).
QUARANTINE_DIR = "quarantine"


def quarantine_path(root: PathLike, subsystem: str, entry: PathLike) -> Path:
    """Destination under ``<root>/quarantine/<subsystem>/`` for ``entry``.

    Collisions get a numeric suffix so repeated repairs never clobber
    earlier evidence.
    """
    base = Path(root) / QUARANTINE_DIR / subsystem
    candidate = base / Path(entry).name
    counter = 1
    while candidate.exists():
        candidate = base / f"{Path(entry).name}.{counter}"
        counter += 1
    return candidate


def quarantine(root: PathLike, subsystem: str, entry: PathLike) -> Optional[Path]:
    """Move ``entry`` (file or directory) into the quarantine subtree.

    Returns the destination, or ``None`` when the move failed (read-only
    store: the caller downgrades to reporting only).
    """
    source = Path(entry)
    destination = quarantine_path(root, subsystem, source)
    try:
        destination.parent.mkdir(parents=True, exist_ok=True)
        os.replace(source, destination)
    except OSError as exc:
        if exc.errno == errno.EXDEV:  # cross-device: fall back to copy+delete
            try:
                import shutil

                shutil.move(str(source), str(destination))
                return destination
            except OSError:
                return None
        return None
    return destination
