"""``lva-trace`` — summarize a telemetry trace file.

Usage::

    lva-trace runs/trace.jsonl             # human-readable summary
    lva-trace runs/trace.jsonl --json      # machine-readable summary
    lva-trace t.jsonl --check-wall 5       # point spans ≈ engine wall ±5%
    lva-trace t.jsonl --check-speedscope profile.json

The ``--check-*`` flags turn the tool into a CI assertion: a failed
check prints the reason and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.telemetry.profiling import validate_speedscope
from repro.telemetry.tracing import TraceError, iter_spans, read_trace


def summarize(records: List[Dict[str, object]]) -> Dict[str, object]:
    """Aggregate a parsed trace into a summary dict."""
    events: Dict[str, int] = {}
    pids = set()
    spans: Dict[str, Dict[str, float]] = {}
    lifecycle: Dict[str, int] = {}
    faults: Dict[str, int] = {}
    wall_s: Optional[float] = None
    first_t: Optional[int] = None
    last_t: Optional[int] = None
    for record in records:
        ev = str(record["ev"])
        events[ev] = events.get(ev, 0) + 1
        pids.add(record["pid"])
        t = record["t"]
        if isinstance(t, int):
            first_t = t if first_t is None else min(first_t, t)
            last_t = t if last_t is None else max(last_t, t)
        if ev.startswith("sweep.point."):
            stage = ev.rsplit(".", 1)[1]
            lifecycle[stage] = lifecycle.get(stage, 0) + 1
        elif ev.startswith("fault."):
            kind = str(record.get("kind", "unknown"))
            faults[f"{ev}:{kind}"] = faults.get(f"{ev}:{kind}", 0) + 1
        elif ev == "sweep.summary":
            elapsed = record.get("elapsed_s")
            if isinstance(elapsed, (int, float)):
                wall_s = float(elapsed)
    for span in iter_spans(records):
        name = str(span.get("name"))
        agg = spans.setdefault(name, {"count": 0, "total_s": 0.0, "max_s": 0.0})
        dur_s = float(span.get("dur_ns", 0)) / 1e9  # type: ignore[arg-type]
        agg["count"] += 1
        agg["total_s"] += dur_s
        agg["max_s"] = max(agg["max_s"], dur_s)
    summary: Dict[str, object] = {
        "records": len(records),
        "processes": len(pids),
        "events": dict(sorted(events.items())),
        "spans": {name: spans[name] for name in sorted(spans)},
        "point_lifecycle": dict(sorted(lifecycle.items())),
        "faults": dict(sorted(faults.items())),
    }
    if first_t is not None and last_t is not None:
        summary["trace_window_s"] = (last_t - first_t) / 1e9
    if wall_s is not None:
        summary["engine_wall_s"] = wall_s
    return summary


def _print_summary(summary: Dict[str, object]) -> None:
    print(f"records:   {summary['records']}  (processes: {summary['processes']})")
    if "trace_window_s" in summary:
        print(f"window:    {summary['trace_window_s']:.3f} s")
    if "engine_wall_s" in summary:
        print(f"engine:    {summary['engine_wall_s']:.3f} s wall")
    events = summary["events"]
    if events:
        print("events:")
        for ev, count in events.items():  # type: ignore[union-attr]
            print(f"  {ev:<28} {count}")
    spans = summary["spans"]
    if spans:
        print("spans:")
        for name, agg in spans.items():  # type: ignore[union-attr]
            print(
                f"  {name:<28} n={agg['count']:<5} "
                f"total={agg['total_s']:.3f}s max={agg['max_s']:.3f}s"
            )
    lifecycle = summary["point_lifecycle"]
    if lifecycle:
        stages = ", ".join(f"{k}={v}" for k, v in lifecycle.items())  # type: ignore[union-attr]
        print(f"points:    {stages}")
    faults = summary["faults"]
    if faults:
        print("faults:")
        for key, count in faults.items():  # type: ignore[union-attr]
            print(f"  {key:<28} {count}")


def check_wall(summary: Dict[str, object], tolerance_pct: float) -> Optional[str]:
    """Verify per-point span time sums to the engine wall time.

    Returns an error message, or ``None`` when the check passes. Only
    meaningful for serial runs — with a process pool, per-point spans
    run concurrently and legitimately sum past wall time, so only a
    shortfall beyond tolerance fails there.
    """
    spans = summary.get("spans", {})
    point = spans.get("sweep.point") if isinstance(spans, dict) else None
    wall = summary.get("engine_wall_s")
    if point is None:
        return "trace has no sweep.point spans"
    if not isinstance(wall, (int, float)) or wall <= 0:
        return "trace has no sweep.summary wall time"
    total = float(point["total_s"])
    processes = summary.get("processes", 1)
    ratio = total / wall
    low = 1.0 - tolerance_pct / 100.0
    if ratio < low:
        return (
            f"sweep.point spans sum to {total:.3f}s but engine wall is "
            f"{wall:.3f}s ({ratio:.1%} < {low:.1%})"
        )
    if processes == 1 and ratio > 1.0 + tolerance_pct / 100.0:
        return (
            f"serial trace spans sum to {total:.3f}s, exceeding engine wall "
            f"{wall:.3f}s beyond tolerance"
        )
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lva-trace", description="Summarize a repro telemetry trace file."
    )
    parser.add_argument("trace", help="path to the JSONL trace file")
    parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    parser.add_argument(
        "--check-wall",
        type=float,
        metavar="PCT",
        help="fail unless sweep.point spans sum to engine wall time ±PCT%%",
    )
    parser.add_argument(
        "--check-speedscope",
        metavar="PATH",
        help="also validate a speedscope profile JSON file",
    )
    args = parser.parse_args(argv)

    try:
        records = read_trace(args.trace)
    except TraceError as exc:
        print(f"lva-trace: {exc}", file=sys.stderr)
        return 1
    summary = summarize(records)

    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        _print_summary(summary)

    status = 0
    if args.check_wall is not None:
        error = check_wall(summary, args.check_wall)
        if error is None:
            print(f"check-wall: OK (±{args.check_wall:g}%)")
        else:
            print(f"check-wall: FAIL: {error}", file=sys.stderr)
            status = 1
    if args.check_speedscope:
        try:
            doc = json.loads(Path(args.check_speedscope).read_text(encoding="utf-8"))
            validate_speedscope(doc)
        except Exception as exc:  # surfaced as a CI failure, not a crash
            print(f"check-speedscope: FAIL: {exc}", file=sys.stderr)
            status = 1
        else:
            print("check-speedscope: OK")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
