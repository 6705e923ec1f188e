"""Tests for cached full-system points and their sweep-engine integration."""

from __future__ import annotations

import math

import pytest

from repro.core.config import ApproximatorConfig
from repro.experiments import common, diskcache
from repro.experiments.common import fullsystem_point
from repro.experiments.sweep import SweepEngine

pytestmark = pytest.mark.usefixtures("fresh_results")


class TestRunFullSystemPoint:
    def test_memory_cache_returns_identical_object(self):
        first = common.run_fullsystem_point("swaptions", small=True)
        second = common.run_fullsystem_point("swaptions", small=True)
        assert first is second

    def test_disk_cache_round_trip(self, disk_cache):
        first = common.run_fullsystem_point("swaptions", small=True)
        common._RESULTS.clear()
        common._TRACE_CACHE.clear()
        before = common.COMPUTE_COUNTERS["fullsystem_disk_hits"]
        second = common.run_fullsystem_point("swaptions", small=True)
        assert common.COMPUTE_COUNTERS["fullsystem_disk_hits"] == before + 1
        assert second.cycles == first.cycles
        assert second.energy == first.energy

    def test_approximate_point_differs_from_baseline_key(self):
        baseline = common.run_fullsystem_point("swaptions", small=True)
        lva = common.run_fullsystem_point(
            "swaptions",
            approximate=True,
            approximator=ApproximatorConfig(approximation_degree=4),
            small=True,
        )
        assert baseline is not lva

    def test_failed_result_renders_as_nan(self):
        failed = common.failed_fullsystem_result("boom")
        assert failed.failure == "boom"
        assert math.isnan(failed.cycles)


class TestFullSystemPoints:
    def test_point_shape(self):
        p = fullsystem_point("canneal", small=True)
        assert p.kind == "fullsystem"
        assert p.approximate is False
        assert "fullsystem-baseline" in p.describe()
        lva = fullsystem_point(
            "canneal", ApproximatorConfig(approximation_degree=2), small=True
        )
        assert lva.approximate is True
        assert "fullsystem-lva" in lva.describe()


class TestEngineIntegration:
    def points(self):
        pts = []
        for name in ("swaptions", "canneal"):
            pts.append(fullsystem_point(name, small=True))
            pts.append(
                fullsystem_point(
                    name, ApproximatorConfig(approximation_degree=4), small=True
                )
            )
        return pts

    def test_serial_engine_computes_fullsystem_points(self, disk_cache):
        report = SweepEngine(jobs=1).execute(self.points())
        assert report.unique_points == 4
        assert report.fullsystem_computed == 4
        assert report.unique_baselines == 0
        assert not report.failures
        # Pre-capture wave: one capture per workload, shared by both points.
        assert report.traces_captured == 2
        assert "replays" in report.summary()

    def test_warm_store_skips_all_captures(self, disk_cache):
        cold = SweepEngine(jobs=1).execute(self.points())
        assert cold.traces_captured == 2

        # New process simulation: drop every in-process layer and the
        # replay *result* cache, but keep the trace store.
        common._TRACE_CACHE.clear()
        common._RESULTS.clear()
        disk = diskcache.active_cache()
        assert disk is not None
        disk.clear()

        warm = SweepEngine(jobs=1).execute(self.points())
        assert warm.traces_captured == 0, "warm store must not re-capture"
        assert warm.trace_store_hits >= 1
        assert warm.fullsystem_computed == 4
        assert not warm.failures

    def test_results_identical_across_cold_and_warm(self, disk_cache):
        SweepEngine(jobs=1).execute(self.points())
        cold = common.run_fullsystem_point("swaptions", small=True)

        common._TRACE_CACHE.clear()
        common._RESULTS.clear()
        diskcache.active_cache().clear()

        SweepEngine(jobs=1).execute(self.points())
        warm = common.run_fullsystem_point("swaptions", small=True)
        assert warm.cycles == cold.cycles
        assert warm.total_miss_latency == cold.total_miss_latency
        assert warm.energy == cold.energy

    def test_pooled_store_hits_count_only_served_captures(self, disk_cache):
        """Workers' own store reads depend on which worker replays which
        point, so the report leaves them out: a cold pooled sweep reads 0
        store hits whatever the scheduling, and its warm rerun 7."""
        from repro.experiments import fig10

        points = fig10.DRIVER.points(small=True)
        cold = SweepEngine(jobs=2).execute(points)
        assert not cold.failures
        assert (cold.traces_captured, cold.trace_store_hits) == (7, 0)

        common._RESULTS.clear()
        common._TRACE_CACHE.clear()
        warm = SweepEngine(jobs=2).execute(points)
        assert (warm.traces_captured, warm.trace_store_hits) == (0, 7)
        assert warm.disk_hits == 42

    def test_no_store_still_computes(self):
        # Caching disabled entirely (conftest sets REPRO_NO_CACHE): no
        # capture tasks are scheduled, workers capture privately.
        report = SweepEngine(jobs=1).execute(self.points())
        assert report.fullsystem_computed == 4
        assert report.trace_store_hits == 0
        assert not report.failures

    def test_fig10_points_cover_every_workload_and_degree(self):
        from repro.experiments import fig10

        pts = fig10.DRIVER.points(small=True)
        workloads = {p.workload for p in pts}
        assert workloads == set(common.BASELINE_WORKLOADS)
        assert all(p.fullsystem for p in pts)
        per_workload = len(fig10.DEGREES) + 1  # degrees + precise baseline
        assert len(pts) == per_workload * len(common.BASELINE_WORKLOADS)

    def test_fig11_points_align_with_fig10_shape(self):
        from repro.experiments import fig10, fig11

        assert len(fig11.DRIVER.points(small=True)) == len(
            fig10.DRIVER.points(small=True)
        )
