"""Engine-fault injection and the sweep engine's supervision machinery."""

from __future__ import annotations

import math

import pytest

from repro import faults
from repro.errors import FaultInjectionError, WorkerCrashError
from repro.experiments import fig10, fig13, sweep
from repro.experiments.sweep import SweepEngine

#: Selects exactly one of the five fig13 points (drop-11).
CRASH_ONE = "crash:mantissa_drop_bits=11"


def _fig13_table(small=True):
    return fig13.DRIVER.render(small=small)


class TestSerialSupervision:
    def test_injected_raise_becomes_failed_cell(self, fresh_results):
        faults.activate("raise:mantissa_drop_bits=11")
        report = SweepEngine(jobs=1).execute(fig13.DRIVER.points(small=True))

        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.error_type == "FaultInjectionError"
        assert failure.point.config.mantissa_drop_bits == 11

        table = _fig13_table()
        assert math.isnan(table.series["normalized_mpki"]["drop-11"])
        assert not math.isnan(table.series["normalized_mpki"]["drop-0"])
        assert "FAILED" in table.format_table()

    def test_crash_in_parent_is_caught_not_fatal(self, fresh_results):
        """A crash clause must not take down the parent process: in the
        serial engine it degrades to WorkerCrashError."""
        faults.activate(CRASH_ONE)
        report = SweepEngine(jobs=1).execute(fig13.DRIVER.points(small=True))
        assert [f.error_type for f in report.failures] == ["WorkerCrashError"]
        assert report.unique_points - len(report.failures) == 4

    @pytest.fixture
    def fast_retries(self, monkeypatch):
        monkeypatch.setattr(sweep, "BACKOFF_BASE", 0.01)

    def test_retries_exhausted_counts_attempts(self, fresh_results, fast_retries):
        faults.activate("raise:mantissa_drop_bits=11")
        engine = SweepEngine(jobs=1, retries=2)
        report = engine.execute(fig13.DRIVER.points(small=True))
        assert report.retried_attempts == 2
        assert report.failures[0].attempts == 3

    def test_flaky_point_recovers_with_retries(self, fresh_results, fast_retries):
        faults.activate("flaky:mantissa_drop_bits=11,fails=1")
        engine = SweepEngine(jobs=1, retries=1)
        report = engine.execute(fig13.DRIVER.points(small=True))
        assert not report.failures
        assert report.retried_attempts == 1
        table = _fig13_table()
        assert not any(math.isnan(v) for v in table.series["normalized_mpki"].values())

    def test_flaky_without_retries_fails(self, fresh_results):
        faults.activate("flaky:mantissa_drop_bits=11,fails=1")
        report = SweepEngine(jobs=1, retries=0).execute(fig13.DRIVER.points(small=True))
        assert len(report.failures) == 1


class TestParallelSupervision:
    def test_worker_crash_spares_every_other_point(self, fresh_results):
        """The acceptance scenario: an injected worker crash at one point
        leaves all other points intact; the crasher ends as a FAILED cell
        after the engine degrades to serial execution."""
        faults.activate(CRASH_ONE)
        report = SweepEngine(jobs=2).execute(fig13.DRIVER.points(small=True))

        assert len(report.failures) == 1
        assert report.failures[0].point.config.mantissa_drop_bits == 11
        assert report.pool_rebuilds >= 1

        table = _fig13_table()
        mpki = table.series["normalized_mpki"]
        assert math.isnan(mpki["drop-11"])
        for label in ("drop-0", "drop-5", "drop-17", "drop-23"):
            assert not math.isnan(mpki[label]), label

    def test_hang_reaped_by_point_timeout(self, fresh_results):
        faults.activate("hang:mantissa_drop_bits=11,seconds=60")
        engine = SweepEngine(jobs=2, point_timeout=1.5)
        report = engine.execute(fig13.DRIVER.points(small=True))

        assert report.timeouts >= 1
        assert any(f.error_type == "PointTimeoutError" for f in report.failures)
        table = _fig13_table()
        assert math.isnan(table.series["normalized_mpki"]["drop-11"])
        assert not math.isnan(table.series["normalized_mpki"]["drop-0"])

    def test_failed_baseline_prefails_dependent_points(self, fresh_results):
        faults.activate("raise:kind=precise,workload=fluidanimate")
        report = SweepEngine(jobs=1).execute(fig13.DRIVER.points(small=True))

        # 1 baseline failure + 5 dependent technique points.
        kinds = sorted(f.kind for f in report.failures)
        assert kinds == ["precise"] + ["technique"] * 5
        assert {f.error_type for f in report.failures} == {
            "FaultInjectionError",
            "BaselineFailed",
        }
        table = _fig13_table()
        assert all(math.isnan(v) for v in table.series["normalized_mpki"].values())


class TestInjectorPrimitives:
    def test_before_point_raise(self):
        faults.activate("raise:workload=canneal")
        with pytest.raises(FaultInjectionError):
            faults.before_point("technique", "canneal", "lva", 0, True)
        # Non-matching points sail through.
        faults.before_point("technique", "ferret", "lva", 0, True)

    def test_flaky_respects_attempt_number(self):
        faults.activate("flaky:workload=canneal,fails=2")
        for attempt in (0, 1):
            with pytest.raises(WorkerCrashError):
                faults.before_point(
                    "technique", "canneal", "lva", 0, True, attempt=attempt
                )
        faults.before_point("technique", "canneal", "lva", 0, True, attempt=2)

    def test_inactive_spec_is_silent(self):
        faults.deactivate()
        faults.before_point("technique", "canneal", "lva", 0, True)


class TestUnmatchedClauseWarning:
    """An engine clause that selects no task of a sweep is named on stderr
    before any point runs; the waves are stubbed out, since only the
    warning is under test."""

    @pytest.fixture(autouse=True)
    def _no_waves(self, fresh_results, monkeypatch):
        monkeypatch.setattr(SweepEngine, "_run_wave", lambda self, tasks: None)

    def _stderr_of_fig10_sweep(self, capsys) -> str:
        SweepEngine(jobs=1).execute(fig10.DRIVER.points(small=True))
        return capsys.readouterr().err

    def test_default_kind_on_fullsystem_sweep_warns(self, capsys):
        faults.activate("crash:workload=swaptions")
        err = self._stderr_of_fig10_sweep(capsys)
        assert err.count("\n") == 1
        assert "'crash:workload=swaptions' selects no task" in err
        assert "task kinds: fullsystem" in err

    def test_clause_naming_the_kind_is_silent(self, capsys):
        faults.activate("crash:workload=swaptions,kind=fullsystem")
        assert self._stderr_of_fig10_sweep(capsys) == ""

    def test_no_active_clause_is_silent(self, capsys):
        assert self._stderr_of_fig10_sweep(capsys) == ""
