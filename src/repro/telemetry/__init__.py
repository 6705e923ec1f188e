"""`repro.telemetry` — zero-overhead-when-disabled observability.

Three cooperating layers (each usable standalone):

* :mod:`repro.telemetry.registry` — typed counters/gauges/histograms
  with hierarchical names and interval snapshots;
* :mod:`repro.telemetry.tracing` — append-only JSONL spans/events,
  multi-process safe, summarized by the ``lva-trace`` CLI;
* :mod:`repro.telemetry.profiling` — nested wall-time frames with
  speedscope (flamegraph) export.

Configuration travels through environment variables — the same
mechanism the disk cache and fault injector use — so sweep pool
workers inherit it without any plumbing:

``REPRO_TELEMETRY``
    Truthy value enables the metrics registry and sim hooks.
``REPRO_TRACE``
    Path of the JSONL trace file; setting it implies telemetry on.
``REPRO_TELEMETRY_INTERVAL``
    Instructions per interval snapshot (default 100000).
``REPRO_TELEMETRY_SAMPLE``
    Per-decision trace sampling rate (default 1024; 1 = every call).

When nothing is configured, :func:`sim_hook` returns ``None`` and the
simulator hot path pays exactly one ``is None`` test per load — the
microbench suite pins this.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Optional, Union

from repro import envspec
from repro.telemetry.profiling import (
    Profiler,
    profile_to_text,
    validate_speedscope,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    publish_stats,
    safe_ratio,
)
from repro.telemetry.simhook import SimTelemetry
from repro.telemetry.tracing import (
    SampledEmitter,
    TraceError,
    TraceWriter,
    iter_spans,
    read_trace,
)

# All four knobs are declared (classification: capture-only) in
# repro.envspec; the local names predate the registry.
TELEMETRY_ENV = envspec.TELEMETRY_ENV
TRACE_ENV = envspec.TRACE_ENV
INTERVAL_ENV = envspec.TELEMETRY_INTERVAL_ENV
SAMPLE_ENV = envspec.TELEMETRY_SAMPLE_ENV

DEFAULT_INTERVAL = 100_000
DEFAULT_SAMPLE = 1024

#: Per-process cached objects, re-resolved after fork (pid changes).
_STATE: Dict[str, object] = {"pid": None, "registry": None, "tracer": None}


def _fresh_state() -> Dict[str, object]:
    pid = os.getpid()
    if _STATE["pid"] != pid:
        _STATE["pid"] = pid
        _STATE["registry"] = None
        _STATE["tracer"] = None
    return _STATE


def enabled() -> bool:
    """Whether telemetry is configured on for this process."""
    if os.environ.get(TELEMETRY_ENV, "") not in ("", "0"):
        return True
    return bool(os.environ.get(TRACE_ENV))


def trace_path() -> Optional[Path]:
    """The configured trace file path, if tracing is on."""
    raw = os.environ.get(TRACE_ENV)
    return Path(raw) if raw else None


def interval() -> int:
    """Instructions per interval snapshot."""
    try:
        return max(1, int(os.environ.get(INTERVAL_ENV, DEFAULT_INTERVAL)))
    except ValueError:
        return DEFAULT_INTERVAL


def sample_rate() -> int:
    """Sampling rate for per-decision trace events."""
    try:
        return max(1, int(os.environ.get(SAMPLE_ENV, DEFAULT_SAMPLE)))
    except ValueError:
        return DEFAULT_SAMPLE


def metrics() -> MetricsRegistry:
    """This process's metrics registry (created on first use)."""
    state = _fresh_state()
    registry = state["registry"]
    if registry is None:
        registry = MetricsRegistry()
        state["registry"] = registry
    return registry  # type: ignore[return-value]


def tracer() -> Optional[TraceWriter]:
    """This process's trace writer, or ``None`` when tracing is off."""
    path = trace_path()
    if path is None:
        return None
    state = _fresh_state()
    writer = state["tracer"]
    if writer is None or writer.path != path:  # type: ignore[union-attr]
        if writer is not None:
            writer.close()  # type: ignore[union-attr]
        writer = TraceWriter(path)
        state["tracer"] = writer
    return writer  # type: ignore[return-value]


def sim_hook() -> Optional[SimTelemetry]:
    """A :class:`SimTelemetry` for a new simulator, or ``None`` when off.

    The simulator stores the result in ``self._tel`` and guards every
    call with ``if self._tel is not None`` — the whole disabled-mode
    cost.
    """
    if not enabled():
        return None
    return SimTelemetry(
        metrics(), tracer(), interval=interval(), sample=sample_rate()
    )


def configure(
    on: bool = True,
    trace: Optional[Union[str, Path]] = None,
    snapshot_interval: Optional[int] = None,
    sample: Optional[int] = None,
) -> None:
    """Configure telemetry via the environment (inherited by workers)."""
    if on:
        os.environ[TELEMETRY_ENV] = "1"
    else:
        os.environ.pop(TELEMETRY_ENV, None)
    if trace is not None:
        os.environ[TRACE_ENV] = str(trace)
    elif not on:
        os.environ.pop(TRACE_ENV, None)
    if snapshot_interval is not None:
        os.environ[INTERVAL_ENV] = str(int(snapshot_interval))
    if sample is not None:
        os.environ[SAMPLE_ENV] = str(int(sample))
    shutdown()


def shutdown() -> None:
    """Close the trace writer and drop cached state (env is untouched)."""
    writer = _STATE.get("tracer")
    if writer is not None:
        writer.close()  # type: ignore[union-attr]
    _STATE["pid"] = None
    _STATE["registry"] = None
    _STATE["tracer"] = None


__all__ = [
    "Counter",
    "DEFAULT_INTERVAL",
    "DEFAULT_SAMPLE",
    "Gauge",
    "Histogram",
    "INTERVAL_ENV",
    "MetricsRegistry",
    "Profiler",
    "SAMPLE_ENV",
    "SampledEmitter",
    "SimTelemetry",
    "TELEMETRY_ENV",
    "TRACE_ENV",
    "TraceError",
    "TraceWriter",
    "configure",
    "enabled",
    "interval",
    "iter_spans",
    "metrics",
    "profile_to_text",
    "publish_stats",
    "read_trace",
    "safe_ratio",
    "sample_rate",
    "shutdown",
    "sim_hook",
    "trace_path",
    "tracer",
    "validate_speedscope",
]
