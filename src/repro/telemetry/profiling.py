"""Profiling hooks: per-component timing with speedscope export.

A :class:`Profiler` records properly nested open/close frame events
(``begin``/``end`` or the :meth:`Profiler.frame` context manager) using
``perf_counter_ns`` and exports them as a flamegraph-ready `speedscope
<https://www.speedscope.app>`_ "evented" JSON document.

The registry/trace layers answer *what happened*; the profiler answers
*where the wall time went* — per component (workload generation, cache
simulation, approximator training, rendering), not per Python function.
For function-level detail :func:`profile_to_text` wraps :mod:`cProfile`;
it replaces the bespoke profiling code the experiment runner used to
carry inline.

Timing hot paths costs two clock reads per frame, so profilers should
wrap component-sized regions (a whole sweep point, a render), not
per-load work.
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple, Union

from repro.errors import ConfigurationError


class Profiler:
    """Records nested timing frames; exports speedscope JSON."""

    def __init__(self, name: str = "repro") -> None:
        self.name = name
        self._origin_ns = time.perf_counter_ns()
        #: Open frame stack: (frame name, open timestamp offset).
        self._stack: List[Tuple[str, int]] = []
        #: Closed events: (type "O"/"C", frame name, offset ns).
        self._events: List[Tuple[str, str, int]] = []

    def _now(self) -> int:
        return time.perf_counter_ns() - self._origin_ns

    def begin(self, frame: str) -> None:
        """Open a frame; frames must close in LIFO order."""
        at = self._now()
        self._stack.append((frame, at))
        self._events.append(("O", frame, at))

    def end(self, frame: str) -> int:
        """Close the innermost frame (must match); returns duration ns."""
        if not self._stack or self._stack[-1][0] != frame:
            open_name = self._stack[-1][0] if self._stack else None
            raise ConfigurationError(
                f"profiler frame mismatch: closing {frame!r}, "
                f"innermost open frame is {open_name!r}"
            )
        _, opened = self._stack.pop()
        at = self._now()
        self._events.append(("C", frame, at))
        return at - opened

    def frame(self, name: str) -> "_Frame":
        """Context manager form of :meth:`begin`/:meth:`end`."""
        return _Frame(self, name)

    def timings(self) -> Dict[str, float]:
        """Total seconds per frame name (self+children, closed frames)."""
        opened: Dict[str, List[int]] = {}
        totals: Dict[str, int] = {}
        for kind, frame, at in self._events:
            if kind == "O":
                opened.setdefault(frame, []).append(at)
            else:
                start = opened[frame].pop()
                totals[frame] = totals.get(frame, 0) + (at - start)
        return {frame: ns / 1e9 for frame, ns in totals.items()}

    def to_speedscope(self) -> Dict[str, Any]:
        """The profile as a speedscope "evented" document (dict)."""
        end_at = self._now()
        frame_index: Dict[str, int] = {}
        frames: List[Dict[str, str]] = []
        events: List[Dict[str, object]] = []
        for kind, frame, at in self._events:
            idx = frame_index.get(frame)
            if idx is None:
                idx = len(frames)
                frame_index[frame] = idx
                frames.append({"name": frame})
            events.append({"type": kind, "frame": idx, "at": at})
        # Close any still-open frames so the document is well formed.
        for frame, _ in reversed(self._stack):
            events.append({"type": "C", "frame": frame_index[frame], "at": end_at})
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": self.name,
            "activeProfileIndex": 0,
            "exporter": "repro.telemetry",
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "evented",
                    "name": self.name,
                    "unit": "nanoseconds",
                    "startValue": 0,
                    "endValue": end_at,
                    "events": events,
                }
            ],
        }

    def write_speedscope(self, path: Union[str, Path]) -> Path:
        """Write the speedscope document to ``path``; returns the path."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(self.to_speedscope(), indent=1), encoding="utf-8")
        return out


class _Frame:
    """Context manager pairing ``begin``/``end`` for one profiler frame."""

    __slots__ = ("_profiler", "_name", "duration_ns")

    def __init__(self, profiler: Profiler, name: str) -> None:
        self._profiler = profiler
        self._name = name
        self.duration_ns = 0

    def __enter__(self) -> "_Frame":
        self._profiler.begin(self._name)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.duration_ns = self._profiler.end(self._name)


def validate_speedscope(doc: Dict[str, Any]) -> None:
    """Check a speedscope "evented" document; raises on malformation.

    Validates the invariants the viewer relies on: frame indices in
    range, per-profile events sorted by ``at``, and open/close events
    strictly nested (every C matches the innermost open O).
    """
    if not isinstance(doc.get("shared"), dict) or not isinstance(
        doc["shared"].get("frames"), list
    ):
        raise ConfigurationError("speedscope document missing shared.frames")
    n_frames = len(doc["shared"]["frames"])
    profiles = doc.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        raise ConfigurationError("speedscope document has no profiles")
    for profile in profiles:
        if profile.get("type") != "evented":
            raise ConfigurationError(
                f"unsupported profile type {profile.get('type')!r}"
            )
        last_at = profile.get("startValue", 0)
        stack: List[int] = []
        for event in profile.get("events", []):
            frame = event.get("frame")
            at = event.get("at")
            if not isinstance(frame, int) or not 0 <= frame < n_frames:
                raise ConfigurationError(f"event frame {frame!r} out of range")
            if not isinstance(at, int) or at < last_at:
                raise ConfigurationError("events are not sorted by 'at'")
            last_at = at
            if event.get("type") == "O":
                stack.append(frame)
            elif event.get("type") == "C":
                if not stack or stack.pop() != frame:
                    raise ConfigurationError(
                        f"close event for frame {frame} does not match "
                        "the innermost open frame"
                    )
            else:
                raise ConfigurationError(f"bad event type {event.get('type')!r}")
        if stack:
            raise ConfigurationError(f"unclosed frames at end of profile: {stack}")
        if profile.get("endValue", last_at) < last_at:
            raise ConfigurationError("endValue precedes the last event")


def profile_to_text(
    fn: Callable[[], Any], limit: int = 25, sort: str = "cumulative"
) -> Tuple[Any, str]:
    """Run ``fn`` under :mod:`cProfile`; return (result, stats text)."""
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(sort).print_stats(limit)
    return result, buffer.getvalue()
