"""Smoke tests for the ablation drivers (small scale)."""

import pytest

from repro.experiments import ablations, common


@pytest.fixture(autouse=True, scope="module")
def _fresh_caches():
    common.reset_caches()
    yield
    common.reset_caches()


class TestTableSize:
    def test_all_sizes_present(self):
        result = ablations.DRIVERS["ablate-table-size"].render(small=True)
        assert set(result.series) == {f"entries-{n}" for n in (32, 64, 128, 256, 512)}

    def test_small_tables_close_to_baseline(self):
        """Section VII-A: few static PCs means small tables barely hurt."""
        result = ablations.DRIVERS["ablate-table-size"].render(small=True)
        assert result.average("entries-128") <= result.average("entries-512") + 0.15


class TestLHBSize:
    def test_series_present(self):
        result = ablations.DRIVERS["ablate-lhb-size"].render(small=True)
        assert "mpki-lhb-4" in result.series
        assert "error-lhb-1" in result.series

    def test_values_bounded(self):
        result = ablations.DRIVERS["ablate-lhb-size"].render(small=True)
        for series in result.series.values():
            for value in series.values():
                assert 0.0 <= value <= 1.2


class TestComputeFunction:
    def test_all_functions_swept(self):
        result = ablations.DRIVERS["ablate-compute-fn"].render(small=True)
        for fn in ("average", "last", "stride", "delta"):
            assert f"mpki-{fn}" in result.series
            assert f"error-{fn}" in result.series


class TestIntConfidence:
    def test_only_integer_workloads(self):
        result = ablations.DRIVERS["ablate-int-confidence"].render(small=True)
        assert set(result.series["mpki-confidence"]) == {
            "bodytrack", "canneal", "x264"
        }

    def test_confidence_gating_cannot_increase_coverage(self):
        result = ablations.DRIVERS["ablate-int-confidence"].render(small=True)
        # With gating on, effective MPKI is >= the ungated case.
        for name in ("bodytrack", "canneal", "x264"):
            assert (
                result.series["mpki-confidence"][name]
                >= result.series["mpki-no-confidence"][name] - 0.02
            )


class TestConfidenceSteps:
    def test_all_steps_swept(self):
        result = ablations.DRIVERS["ablate-confidence-steps"].render(small=True)
        assert {f"mpki-step-{s}" for s in (1, 2, 4)} <= set(result.series)

    def test_errors_bounded(self):
        result = ablations.DRIVERS["ablate-confidence-steps"].render(small=True)
        for label, series in result.series.items():
            if label.startswith("error"):
                for value in series.values():
                    assert 0.0 <= value <= 1.0


class TestNocCalibration:
    def test_models_agree_at_low_load(self):
        from repro.experiments import noc_calibration

        result = noc_calibration.DRIVER.render(small=True)
        fast = result.series["fast_latency"]
        detailed = result.series["detailed_latency"]
        assert set(fast) == set(detailed)
        for label in fast:
            # Within 2x of each other at every low-load point.
            ratio = detailed[label] / max(fast[label], 1e-9)
            assert 0.5 < ratio < 2.0, label

    def test_latencies_positive(self):
        from repro.experiments import noc_calibration

        result = noc_calibration.DRIVER.render(small=True)
        for series in result.series.values():
            for value in series.values():
                assert value > 0
