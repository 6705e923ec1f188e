"""Structured trace/event layer: append-only JSONL spans and events.

A :class:`TraceWriter` appends one JSON object per line to a trace file
(the ``--trace`` path). Every record carries:

``ev``
    Event name (dotted, e.g. ``sweep.point.done``, ``fault.engine``).
``t``
    Wall-clock timestamp in nanoseconds (``time.time_ns``).
``pid``
    Writing process id — sweep workers append to the same file.

Span records (``"ev": "span"``) additionally carry ``name`` and
``dur_ns``. Each line is written with a **single** ``os.write`` on a
file descriptor opened with ``O_APPEND``, which POSIX guarantees to be
atomic for reasonable line sizes — concurrent pool workers therefore
interleave whole lines, never corrupt each other.

Writers degrade rather than fail: if the trace path cannot be opened or
a write raises, the writer warns once and becomes a no-op — telemetry
must never take down a simulation.

:func:`read_trace` is the strict parser used by the ``lva-trace`` CLI
and the test suite.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.errors import ReproError


class TraceError(ReproError):
    """A trace file could not be parsed."""


class _Span:
    """Context manager timing one named region; emitted on exit."""

    __slots__ = ("_writer", "name", "fields", "_start_ns")

    def __init__(self, writer: "TraceWriter", name: str, fields: Dict[str, object]):
        self._writer = writer
        self.name = name
        self.fields = fields
        self._start_ns = 0

    def __enter__(self) -> "_Span":
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        dur_ns = time.perf_counter_ns() - self._start_ns
        record = dict(self.fields)
        record["name"] = self.name
        record["dur_ns"] = dur_ns
        if exc_type is not None:
            record["error"] = getattr(exc_type, "__name__", str(exc_type))
        self._writer.emit("span", **record)


class TraceWriter:
    """Appends JSONL trace records to ``path``; safe across processes."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fd: Optional[int] = None
        self._warned = False
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        except OSError as exc:
            self._degrade(exc)

    def _degrade(self, exc: OSError) -> None:
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"trace file {self.path} is unwritable ({exc}); "
                "tracing disabled for this process",
                RuntimeWarning,
                stacklevel=3,
            )
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
        self._fd = None

    @property
    def active(self) -> bool:
        """Whether this writer can still emit records."""
        return self._fd is not None

    def emit(self, ev: str, **fields: object) -> None:
        """Append one event record (single atomic write)."""
        if self._fd is None:
            return
        record: Dict[str, object] = {"ev": ev, "t": time.time_ns(), "pid": os.getpid()}
        record.update(fields)
        line = json.dumps(record, separators=(",", ":"), default=str) + "\n"
        try:
            os.write(self._fd, line.encode("utf-8"))
        except OSError as exc:
            self._degrade(exc)

    def span(self, name: str, **fields: object) -> _Span:
        """Time a region; emits a ``span`` record with ``dur_ns`` on exit."""
        return _Span(self, name, dict(fields))

    def close(self) -> None:
        """Release the file descriptor (records already on disk)."""
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SampledEmitter:
    """Emit only every Nth call — hot-path decision tracing at low cost.

    The hot path pays one decrement-and-test per call; the JSON encoding
    cost is only paid on the sampled calls. ``rate=1`` records
    everything, larger rates record ``1/rate`` of calls.
    """

    __slots__ = ("_writer", "_ev", "rate", "_countdown", "dropped")

    def __init__(self, writer: TraceWriter, ev: str, rate: int):
        if rate < 1:
            raise ValueError(f"sample rate must be >= 1, got {rate}")
        self._writer = writer
        self._ev = ev
        self.rate = rate
        self._countdown = rate
        #: Calls skipped by sampling since the last emitted record.
        self.dropped = 0

    def emit(self, **fields: object) -> None:
        """Record this call if it falls on the sampling grid."""
        self._countdown -= 1
        if self._countdown:
            self.dropped += 1
            return
        self._countdown = self.rate
        self._writer.emit(self._ev, sampled=self.rate, dropped=self.dropped, **fields)
        self.dropped = 0


def read_trace(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse a JSONL trace file strictly; raises :class:`TraceError`.

    Every non-empty line must be a JSON object with ``ev``, ``t`` and
    ``pid`` keys. A partial final line (a writer killed mid-write, which
    O_APPEND atomicity makes the only possible corruption) is rejected
    too — traces are only read after their runs finish.
    """
    records: List[Dict[str, object]] = []
    trace_path = Path(path)
    try:
        text = trace_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TraceError(f"cannot read trace {trace_path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{trace_path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise TraceError(f"{trace_path}:{lineno}: record is not an object")
        missing = {"ev", "t", "pid"} - record.keys()
        if missing:
            raise TraceError(
                f"{trace_path}:{lineno}: missing keys {sorted(missing)}"
            )
        records.append(record)
    return records


def iter_spans(
    records: List[Dict[str, object]], name: Optional[str] = None
) -> Iterator[Dict[str, object]]:
    """Yield span records, optionally filtered by span name."""
    for record in records:
        if record.get("ev") != "span":
            continue
        if name is not None and record.get("name") != name:
            continue
        yield record
