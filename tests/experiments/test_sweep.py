"""The point-level sweep engine (repro.experiments.sweep)."""

from __future__ import annotations

import dataclasses
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import faults
from repro.core.config import ApproximatorConfig
from repro.experiments import common, diskcache, fig4, fig12, fig13, runner, sweep
from repro.experiments.common import (
    SweepPoint,
    fullsystem_point,
    point_disk_key,
    precise_point,
    technique_point,
)
from repro.experiments.sweep import SweepEngine
from repro.sim.tracesim import Mode

#: The approximate twin of a precise full-system point.
LVA_DEGREE_4 = ApproximatorConfig(approximation_degree=4)


def _mixed_points():
    """fig13's small points plus two swaptions replays sharing one capture."""
    return fig13.DRIVER.points(small=True) + [
        fullsystem_point("swaptions", small=True),
        fullsystem_point("swaptions", LVA_DEGREE_4, small=True),
    ]


def _forget_in_process_results():
    """What a fresh process starts with: the disk state alone."""
    common._RESULTS.clear()
    common._TRACE_CACHE.clear()


def _no_pool(engine):
    raise AssertionError("a sweep with nothing to compute started a worker pool")


class _SteppingBackClock:
    """A wall clock that reads 1.2 s earlier every time it is read."""

    def __init__(self) -> None:
        self.now = 1_000_000.0

    def __call__(self) -> float:
        self.now -= 1.2
        return self.now


class TestSweepPoint:
    def test_technique_point_matches_run_technique_key(self):
        point = technique_point(
            "canneal", Mode.LVA, ApproximatorConfig(ghb_size=2), small=True
        )
        assert point.kind == "technique"
        assert point.params == ()
        assert point.baseline() == precise_point("canneal", small=True)

    def test_points_dedupe_across_experiments(self):
        """Figures 4 and 5 share every LVA point; dedup must collapse them."""
        pts = fig4.DRIVER.points(small=True) + fig4.DRIVER.points(small=True)
        assert len(dict.fromkeys(pts)) == len(fig4.DRIVER.points(small=True))

    def test_params_are_order_insensitive(self):
        a = technique_point("canneal", Mode.LVA, params={"x": 1, "y": 2})
        b = technique_point("canneal", Mode.LVA, params={"y": 2, "x": 1})
        assert a == b


class TestDeterministicBackoff:
    """Retry backoff jitter is a pure function of (seed, key, attempt) —
    schedule-independent, so a rerun or parallel run never perturbs it."""

    def test_same_inputs_same_delay(self):
        a = SweepEngine(jobs=1, jitter_seed=7)
        b = SweepEngine(jobs=4, jitter_seed=7)
        for attempt in (1, 2, 3):
            assert a._backoff_delay(attempt, "k") == b._backoff_delay(attempt, "k")

    def test_delay_varies_with_seed_key_and_attempt(self):
        engine = SweepEngine(jobs=1, jitter_seed=7)
        other = SweepEngine(jobs=1, jitter_seed=8)
        assert engine._backoff_delay(1, "k") != other._backoff_delay(1, "k")
        assert engine._backoff_delay(1, "k") != engine._backoff_delay(1, "k2")
        assert engine._backoff_delay(1, "k") != engine._backoff_delay(2, "k")

    def test_delay_within_jitter_band_and_capped(self):
        engine = SweepEngine(jobs=1, jitter_seed=3)
        capped = 0
        for attempt in range(1, 10):
            doubled = sweep.BACKOFF_BASE * 2 ** (attempt - 1)
            nominal = min(sweep.BACKOFF_CAP, doubled)
            capped += doubled > sweep.BACKOFF_CAP
            delay = engine._backoff_delay(attempt, f"key-{attempt}")
            assert 0.5 * nominal <= delay < 1.5 * nominal
        assert capped  # the last attempts reach the cap

    def test_independent_of_call_order(self):
        engine = SweepEngine(jobs=1, jitter_seed=5)
        forward = [engine._backoff_delay(n, "k") for n in (1, 2, 3)]
        fresh = SweepEngine(jobs=1, jitter_seed=5)
        backward = [fresh._backoff_delay(n, "k") for n in (3, 2, 1)]
        assert forward == backward[::-1]


class TestSerialEngine:
    def test_fig13_equivalent_to_driver_alone(self, disk_cache):
        """A table built after a sweep is bitwise-identical to one built
        by the driver alone on cold caches."""
        expected = fig13.DRIVER.render(small=True)
        common.reset_caches()

        report = SweepEngine(jobs=1).execute(fig13.DRIVER.points(small=True))
        swept = fig13.DRIVER.render(small=True)

        assert dataclasses.asdict(swept) == dataclasses.asdict(expected)
        assert report.unique_points == 5
        assert report.unique_baselines == 1
        assert report.precise_computed == 1
        assert report.technique_computed == 5

    def test_fig4_equivalent_to_driver_alone(self, disk_cache):
        """The acceptance point: Figure 4 through the engine + disk cache
        is bitwise-identical to the driver computing everything itself."""
        expected = fig4.DRIVER.render(small=True)
        common.reset_caches()

        report = SweepEngine(jobs=1).execute(fig4.DRIVER.points(small=True))
        swept = fig4.DRIVER.render(small=True)

        assert dataclasses.asdict(swept) == dataclasses.asdict(expected)
        assert report.precise_computed == report.unique_baselines == 7
        assert report.technique_computed == report.unique_points == 56

    def test_driver_rerun_is_pure_cache_hits(self, disk_cache):
        SweepEngine(jobs=1).execute(fig13.DRIVER.points(small=True))
        before = common.COMPUTE_COUNTERS.copy()
        fig13.DRIVER.render(small=True)
        after = common.COMPUTE_COUNTERS.copy()
        assert after["precise_computed"] == before["precise_computed"]
        assert after["technique_computed"] == before["technique_computed"]


class TestParallelEngine:
    def test_exactly_once_across_workers(self, disk_cache):
        """Every baseline and every technique point is computed exactly
        once across the worker pool, never per-worker."""
        points = fig12.DRIVER.points(small=True) + fig13.DRIVER.points(small=True)
        unique = list(dict.fromkeys(points))
        baselines = set(p.baseline() for p in unique)

        report = SweepEngine(jobs=2).execute(points)

        assert report.unique_points == len(unique)
        assert report.unique_baselines == len(baselines)
        assert report.precise_computed == len(baselines)
        assert report.technique_computed == len(unique)

    def test_backfill_makes_driver_rerun_free(self, disk_cache):
        SweepEngine(jobs=2).execute(fig13.DRIVER.points(small=True))
        before = common.COMPUTE_COUNTERS.copy()
        result = fig13.DRIVER.render(small=True)
        after = common.COMPUTE_COUNTERS.copy()
        assert after["precise_computed"] == before["precise_computed"]
        assert after["technique_computed"] == before["technique_computed"]
        assert result.series  # the table really was assembled

    def test_backfill_serves_render_from_memory(self, fresh_results):
        """Without a disk cache, only the parent's memo can serve render:
        a backfill under the wrong key shows up as a recomputation."""
        SweepEngine(jobs=2).execute(_mixed_points())
        _assert_render_computes_nothing()

    def test_parallel_equivalent_to_serial(self, disk_cache):
        serial = fig13.DRIVER.render(small=True)
        common.reset_caches()
        SweepEngine(jobs=2).execute(fig13.DRIVER.points(small=True))
        parallel = fig13.DRIVER.render(small=True)
        assert dataclasses.asdict(parallel) == dataclasses.asdict(serial)


def _assert_render_computes_nothing():
    """fig13's render and the two swaptions replays are all memo hits."""
    before = common.COMPUTE_COUNTERS.copy()
    fig13.DRIVER.render(small=True)
    common.run_fullsystem_point("swaptions", small=True)
    common.run_fullsystem_point(
        "swaptions", approximate=True, approximator=LVA_DEGREE_4, small=True
    )
    after = common.COMPUTE_COUNTERS.copy()
    for kind in ("precise", "technique", "fullsystem"):
        assert after[f"{kind}_computed"] == before[f"{kind}_computed"], kind
    assert after["traces_captured"] == before["traces_captured"]


class _CountingPool:
    """A pool wrapper that records the peak number of unfinished futures."""

    def __init__(self, pool):
        self._pool = pool
        self.futures = []
        self.peak = 0

    def submit(self, *args, **kwargs):
        future = self._pool.submit(*args, **kwargs)
        self.futures.append(future)
        self.peak = max(self.peak, sum(not f.done() for f in self.futures))
        return future

    def __getattr__(self, name):
        return getattr(self._pool, name)


@pytest.fixture
def counted_pools(monkeypatch):
    """Every pool the engine builds, each wrapped in a _CountingPool."""
    pools = []
    new_pool = SweepEngine._new_pool

    def counting_pool(engine):
        pools.append(_CountingPool(new_pool(engine)))
        return pools[-1]

    monkeypatch.setattr(SweepEngine, "_new_pool", counting_pool)
    return pools


class TestInFlightCap:
    @pytest.mark.parametrize(
        "point_timeout, expected_peak",
        [(None, 4), (60, 2)],
        ids=["no-timeout-two-per-worker", "timeout-one-per-worker"],
    )
    def test_peak_unfinished_futures(
        self, disk_cache, counted_pools, point_timeout, expected_peak
    ):
        """Without a timeout a queued point waits behind each running one;
        a timeout clock starts at submission, so it keeps one per worker."""
        engine = SweepEngine(jobs=2, point_timeout=point_timeout)
        report = engine.execute(fig13.DRIVER.points(small=True))

        assert not report.failures
        assert report.technique_computed == 5
        assert max(pool.peak for pool in counted_pools) == expected_peak


class TestRestorePass:
    """Stored results are served in the parent; only misses reach a worker."""

    def test_fully_cached_sweep_starts_no_pool(self, disk_cache, monkeypatch):
        points = _mixed_points()
        SweepEngine(jobs=1).execute(points)
        _forget_in_process_results()
        monkeypatch.setattr(SweepEngine, "_new_pool", _no_pool)

        report = SweepEngine(jobs=2).execute(points)

        # The counts a pooled warm run reports: 1 baseline, 5 technique
        # points and 2 replays read from disk, 1 capture from the store.
        assert not report.failures
        assert report.disk_hits == 8
        assert report.trace_store_hits == 1
        assert report.precise_computed == report.technique_computed == 0
        assert report.fullsystem_computed == report.traces_captured == 0
        _assert_render_computes_nothing()

    def test_one_missing_entry_submits_one_task(self, disk_cache, counted_pools):
        points = fig13.DRIVER.points(small=True)
        SweepEngine(jobs=1).execute(points)
        _forget_in_process_results()
        disk_cache._path(point_disk_key(points[2])).unlink()

        report = SweepEngine(jobs=2).execute(points)

        assert [len(pool.futures) for pool in counted_pools] == [1]
        assert report.precise_computed == 0
        assert report.technique_computed == 1
        assert not report.failures

    def test_injected_crash_spares_cached_points(self, disk_cache):
        """Point faults fire in the worker running a point; a served point
        runs none, so a crash clause matching it never fires. ``kind=any``
        selects the swaptions capture and both replays (a clause selects
        technique points by default)."""
        points = _mixed_points()
        SweepEngine(jobs=1).execute(points)
        _forget_in_process_results()
        faults.activate("crash:kind=any,workload=swaptions")
        try:
            report = SweepEngine(jobs=2).execute(points)
        finally:
            faults.deactivate()

        assert not report.failures
        assert report.pool_rebuilds == 0
        assert report.disk_hits == 8 and report.trace_store_hits == 1

    def test_rerun_after_a_failed_point_recomputes_only_it(self, disk_cache):
        """A failed point stores nothing, so a plain rerun recomputes
        exactly that point and renders no FAILED cell."""
        points = fig13.DRIVER.points(small=True)
        faults.activate("raise:mantissa_drop_bits=11")
        try:
            first = SweepEngine(jobs=1).execute(points)
        finally:
            faults.deactivate()
        assert len(first.failures) == 1
        _forget_in_process_results()

        second = SweepEngine(jobs=1).execute(points)

        assert not second.failures
        assert second.technique_computed == 1
        assert second.disk_hits == 5  # the baseline and 4 healthy points
        table = fig13.DRIVER.render(small=True)
        assert not any(math.isnan(v) for v in table.series["normalized_mpki"].values())
        assert "FAILED" not in table.format_table()

    def test_no_cache_sweep_creates_nothing_in_cache_dir(
        self, fresh_results, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(diskcache.NO_CACHE_ENV, "1")
        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path / "nope"))
        SweepEngine(jobs=1).execute(fig13.DRIVER.points(small=True))
        assert not (tmp_path / "nope").exists()

    def test_pooled_sweep_writes_only_results(self, disk_cache):
        """The stores are the checkpoint: a sweep leaves its results in
        the disk cache and nothing beside them, no ``journals/``."""
        SweepEngine(jobs=2).execute(fig13.DRIVER.points(small=True))
        root = diskcache.default_cache_dir()
        assert not (root / "journals").exists()
        assert all(len(entry.name) == 2 for entry in root.iterdir())  # shards

    def test_wall_clock_step_back_keeps_elapsed_non_negative(
        self, disk_cache, monkeypatch
    ):
        """A backwards wall-clock step must not make the run report a
        negative time, which no ``sweep:`` parser accepts."""
        points = fig13.DRIVER.points(small=True)
        SweepEngine(jobs=1).execute(points)
        monkeypatch.setattr(time, "time", _SteppingBackClock())

        report = SweepEngine(jobs=1).execute(points)

        assert report.elapsed >= 0
        assert "-" not in report.summary()


class TestRunnerIntegration:
    def test_every_swept_experiment_declares_points(self):
        for name, declare in runner.POINTS.items():
            pts = declare(small=True, seed=0)
            assert pts, name
            assert all(isinstance(p, SweepPoint) for p in pts), name

    def test_gather_points_honours_repeats(self):
        single = runner.gather_points(["fig13"], small=True, seed=0, repeats=1)
        double = runner.gather_points(["fig13"], small=True, seed=0, repeats=2)
        assert len(double) == 2 * len(single)
        seeds = {p.seed for p in double}
        assert seeds == {0, 1}

    def test_unswept_experiments_have_no_points(self):
        for name in ("table2", "ablate-noc-model"):
            assert name in runner.DRIVERS
            assert name not in runner.POINTS

    def test_fullsystem_experiments_declare_points(self):
        for name in ("fig10", "fig11"):
            assert name in runner.POINTS
            pts = runner.POINTS[name](small=True, seed=0)
            assert pts and all(p.fullsystem for p in pts), name

    def test_warm_unswept_experiments_start_no_pool(
        self, disk_cache, monkeypatch, capsys
    ):
        """table2 and ablate-noc-model declare no points; with their
        tables on disk the runner serves them without a worker process."""
        argv = ["table2", "ablate-noc-model", "--small"]
        assert runner.main(argv + ["--jobs", "1"]) == 0
        cold = capsys.readouterr().out

        def no_executor(*args, **kwargs):
            raise AssertionError("a warm run created a ProcessPoolExecutor")

        monkeypatch.setattr(runner, "ProcessPoolExecutor", no_executor)
        assert runner.main(argv + ["--jobs", "2"]) == 0
        warm = capsys.readouterr().out

        def tables(text):
            return [line for line in text.splitlines() if "completed in" not in line]

        assert tables(warm) == tables(cold)

    def test_run_one_elapsed_survives_wall_clock_step_back(
        self, fresh_results, monkeypatch
    ):
        monkeypatch.setattr(time, "time", _SteppingBackClock())
        name, _, elapsed, _ = runner._run_one("table2", 1, True, 0)
        assert name == "table2"
        assert elapsed >= 0


#: Installs the engine's SIGTERM handler, forks a child that inherits it,
#: terminates the child after ``argv[1]`` seconds and prints its exit
#: code; then checks that SIGTERM still interrupts the installing process.
_SIGTERM_SCRIPT = r"""
import multiprocessing, os, signal, sys, time
from repro.experiments.sweep import SweepEngine

SweepEngine()._install_signal_handler()
child = multiprocessing.get_context("fork").Process(target=time.sleep, args=(30,))
child.start()
time.sleep(float(sys.argv[1]))
child.terminate()
child.join(30)
print(child.exitcode)
try:
    os.kill(os.getpid(), signal.SIGTERM)
    time.sleep(5)
except KeyboardInterrupt:
    print("interrupted")
"""


class TestSigtermHandler:
    @pytest.mark.parametrize("delay", [0.0, 0.2])
    def test_forked_child_dies_quietly(self, delay):
        """A worker forked while the handler is installed dies of the
        signal, with no KeyboardInterrupt traceback; the installing
        process still turns SIGTERM into KeyboardInterrupt."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", _SIGTERM_SCRIPT, str(delay)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(-signal.SIGTERM), "interrupted"]
        assert "KeyboardInterrupt" not in proc.stderr
