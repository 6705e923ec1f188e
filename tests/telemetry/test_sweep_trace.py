"""Sweep points served from the caches show up in the trace."""

from __future__ import annotations

from collections import Counter

from repro import telemetry
from repro.experiments import common, fig13
from repro.experiments.common import fullsystem_point, point_disk_key
from repro.experiments.sweep import SweepEngine
from repro.telemetry.cli import summarize
from repro.telemetry.tracing import read_trace


def _cached_events(records):
    return [r for r in records if r["ev"] == "sweep.point.cached"]


class TestServedPoints:
    def test_lifecycle_balances_on_warm_traced_runs(self, disk_cache, tmp_path):
        """Every queued point is cached, done or failed, and each cached
        one names where it came from: disk or the trace store."""
        technique = fig13.DRIVER.points(small=True)
        points = technique + [fullsystem_point("swaptions", small=True)]
        SweepEngine(jobs=1).execute(points)
        common._RESULTS.clear()
        common._TRACE_CACHE.clear()
        disk_cache._path(point_disk_key(technique[0])).unlink()

        trace = tmp_path / "trace.jsonl"
        telemetry.configure(on=True, trace=trace)
        try:
            # 1 baseline, 1 capture, 5 technique points and 1 replay; the
            # deleted technique point is the only one computed.
            warm = SweepEngine(jobs=1).execute(points)
        finally:
            telemetry.shutdown()

        assert (warm.technique_computed, warm.disk_hits) == (1, 6)
        assert warm.trace_store_hits == 1
        records = read_trace(trace)
        lifecycle = summarize(records)["point_lifecycle"]
        assert lifecycle["queued"] == 8
        assert lifecycle["queued"] == (
            lifecycle["cached"] + lifecycle["done"] + lifecycle.get("failed", 0)
        )
        sources = Counter(
            (event["kind"], event["source"]) for event in _cached_events(records)
        )
        assert sources == {
            ("precise", "disk"): 1,
            ("technique", "disk"): 4,
            ("fullsystem", "disk"): 1,
            ("capture", "store"): 1,
        }
        assert all(event["point"] for event in _cached_events(records))
