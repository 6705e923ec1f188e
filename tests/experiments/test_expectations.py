"""Tests for paper-expectation verification, averaging and charts."""

import pytest

from repro.experiments import table2
from repro.experiments.common import ExperimentResult, averaged
from repro.experiments.expectations import EXPECTATIONS, verify


def fake_fig6(good: bool) -> ExperimentResult:
    result = ExperimentResult("Figure 6", "fake")
    for workload in ("a", "b"):
        result.add("mpki-0%", workload, 0.95)
        result.add("mpki-infinite", workload, 0.30 if good else 0.99)
        result.add("error-0%", workload, 0.001)
        result.add("error-infinite", workload, 0.08 if good else 0.0)
    return result


class TestVerify:
    def test_good_shape_passes(self):
        report = verify("fig6", fake_fig6(good=True))
        assert report.ok
        assert len(report.passed) == 2

    def test_bad_shape_fails_with_claims_listed(self):
        report = verify("fig6", fake_fig6(good=False))
        assert not report.ok
        assert len(report.failed) == 2
        assert "window" in report.failed[0]

    def test_missing_series_counts_as_failure(self):
        report = verify("fig6", ExperimentResult("Figure 6", "empty"))
        assert not report.ok

    def test_unknown_experiment_trivially_ok(self):
        report = verify("table2", ExperimentResult("Table II", "x"))
        assert report.ok

    def test_every_figure_has_expectations(self):
        for name in ("table1",) + tuple(f"fig{i}" for i in range(4, 14)):
            assert EXPECTATIONS.get(name), name

    def test_report_format(self):
        text = verify("fig6", fake_fig6(good=True)).format()
        assert "[ok]" in text and "fig6" in text


class TestAveraged:
    def test_averages_across_seeds(self):
        calls = []

        def driver(small=False, seed=0):
            calls.append(seed)
            result = ExperimentResult("X", "d")
            result.add("v", "w", float(seed))
            return result

        merged = averaged(driver, repeats=3, seed=10)
        assert calls == [10, 11, 12]
        assert merged.series["v"]["w"] == pytest.approx(11.0)
        assert "mean of 3 seeds" in merged.description

    def test_single_repeat_equivalent(self):
        merged = averaged(lambda small=False, seed=0: table2.DRIVER.render(), repeats=1)
        assert merged.series["value"]["cores"] == 4

    def test_invalid_repeats_rejected(self):
        with pytest.raises(ValueError):
            averaged(lambda **kw: None, repeats=0)


class TestRunnerParallel:
    def test_jobs_flag_produces_same_tables(self, capsys):
        from repro.experiments.runner import main

        assert main(["table2", "fig12", "--small", "--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert "Table II" in parallel_out
        assert "Figure 12" in parallel_out
