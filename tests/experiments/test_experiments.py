"""Smoke and shape tests for every experiment driver (small scale).

Full-scale shape assertions live in the benchmark harness; here the point
is that each driver runs end-to-end, returns all the series the paper's
table/figure contains, and the headline orderings already show at small
scale where they are robust.
"""

import pytest

from repro.experiments import common
from repro.experiments import (
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    table1,
    table2,
)
from repro.experiments.runner import DRIVERS, main
from repro.workloads.registry import workload_names


@pytest.fixture(autouse=True, scope="module")
def _fresh_caches():
    common.reset_caches()
    yield
    common.reset_caches()


ALL = workload_names()


class TestCommon:
    def test_precise_reference_cached(self):
        first = common.run_precise_reference("swaptions", small=True)
        second = common.run_precise_reference("swaptions", small=True)
        assert first is second

    def test_geometric_mean(self):
        assert common.geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_capture_trace_has_all_threads(self):
        trace = common.capture_trace("blackscholes", small=True)
        assert set(trace.per_thread()) == {0, 1, 2, 3}

    def test_result_table_formatting(self):
        result = common.ExperimentResult("X", "desc")
        result.add("a", "w1", 1.0)
        result.add("a", "w2", 3.0)
        table = result.format_table()
        assert "w1" in table and "average" in table
        assert result.average("a") == 2.0

    def test_absent_cells_render_as_dash_and_nan_as_failed(self):
        result = common.ExperimentResult("X", "desc")
        result.add("a", "w1", 1.0)
        result.add("b", "w2", 2.0)
        table = result.format_table()
        assert "FAILED" not in table
        assert "—" in table
        result.add("a", "w3", float("nan"))
        assert "FAILED" in result.format_table()


class TestTable1:
    def test_columns_and_workloads(self):
        result = table1.DRIVER.render(small=True)
        assert set(result.series) == {
            "precise_mpki", "instruction_variation", "paper_mpki"
        }
        assert set(result.series["precise_mpki"]) == set(ALL)

    def test_variation_is_small(self):
        result = table1.DRIVER.render(small=True)
        assert result.average("instruction_variation") < 0.25


class TestTable2:
    def test_matches_paper_constants(self):
        values = table2.DRIVER.render().series["value"]
        assert values["cores"] == 4
        assert values["l1_kb"] == 16
        assert values["l2_kb"] == 512
        assert values["memory_latency"] == 160
        assert values["approx_table_entries"] == 512
        assert values["confidence_min"] == -8
        assert values["confidence_max"] == 7
        assert values["lhb_entries"] == 4
        assert values["value_delay"] == 4


class TestFig4and5:
    def test_fig4_series_complete(self):
        result = fig4.DRIVER.render(small=True)
        assert len(result.series) == 8  # {LVP,LVA} x 4 GHB sizes
        for series in result.series.values():
            assert set(series) == set(ALL)

    def test_lva_beats_idealized_lvp_on_average(self):
        result = fig4.DRIVER.render(small=True)
        assert result.average("LVA-GHB-0") < result.average("LVP-GHB-0")

    def test_normalized_mpki_bounded(self):
        result = fig4.DRIVER.render(small=True)
        for series in result.series.values():
            for value in series.values():
                assert 0.0 <= value <= 1.1

    def test_fig5_errors_in_unit_interval(self):
        result = fig5.DRIVER.render(small=True)
        for series in result.series.values():
            for value in series.values():
                assert 0.0 <= value <= 1.0


class TestFig6:
    def test_window_relaxation_lowers_mpki(self):
        result = fig6.DRIVER.render(small=True)
        assert result.average("mpki-infinite") <= result.average("mpki-0%") + 1e-9

    def test_exact_window_has_near_zero_error(self):
        result = fig6.DRIVER.render(small=True)
        assert result.average("error-0%") <= result.average("error-infinite") + 1e-9


class TestFig7:
    def test_all_delays_measured(self):
        result = fig7.DRIVER.render(small=True)
        assert {f"mpki-delay-{d}" for d in (4, 8, 16, 32)} <= set(result.series)

    def test_resilient_to_delay(self):
        result = fig7.DRIVER.render(small=True)
        spread = abs(
            result.average("error-delay-32") - result.average("error-delay-4")
        )
        assert spread < 0.2


class TestFig8and9:
    def test_fetch_direction_split(self):
        result = fig8.DRIVER.render(small=True)
        # Prefetching fetches more than precise; LVA fetches less.
        assert result.average("prefetch-16-fetches") > 1.0
        assert result.average("approx-16-fetches") < 1.0

    def test_lva_fetches_fall_with_degree(self):
        result = fig8.DRIVER.render(small=True)
        assert result.average("approx-16-fetches") < result.average(
            "approx-2-fetches"
        )

    def test_fig9_error_bounded(self):
        result = fig9.DRIVER.render(small=True)
        for series in result.series.values():
            for value in series.values():
                assert 0.0 <= value <= 1.0


class TestFig10and11:
    def test_fig10_series_complete(self):
        result = fig10.DRIVER.render(small=True)
        assert "speedup-approx-0" in result.series
        assert "energy-approx-16" in result.series
        assert set(result.series["speedup-approx-0"]) == set(ALL)

    def test_degree16_saves_energy_vs_degree0(self):
        result = fig10.DRIVER.render(small=True)
        assert result.average("energy-approx-16") > result.average(
            "energy-approx-0"
        )

    def test_fig11_edp_improves_with_degree(self):
        result = fig11.DRIVER.render(small=True)
        assert result.average("approx-16") <= result.average("approx-0") + 1e-9
        for series in result.series.values():
            for value in series.values():
                assert value >= 0.0


class TestFig12and13:
    def test_pc_counts_small_and_x264_largest(self):
        result = fig12.DRIVER.render(small=True)
        counts = result.series["static_approx_pcs"]
        assert all(count < 512 for count in counts.values())
        assert counts["x264"] == max(counts.values())

    def test_fig13_rows(self):
        result = fig13.DRIVER.render(small=True)
        assert set(result.series["normalized_mpki"]) == {
            "drop-0", "drop-5", "drop-11", "drop-17", "drop-23"
        }

    def test_fig13_full_truncation_not_worse(self):
        result = fig13.DRIVER.render(small=True)
        series = result.series["normalized_mpki"]
        assert series["drop-23"] <= series["drop-0"] + 1e-9


class TestRunnerCLI:
    def test_known_experiment_runs(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_registry_covers_every_table_and_figure(self):
        expected = {"table1", "table2"} | {f"fig{i}" for i in range(4, 14)}
        assert expected <= set(DRIVERS)
        # ...plus the ablation studies.
        assert {
            "ablate-table-size",
            "ablate-lhb-size",
            "ablate-compute-fn",
            "ablate-int-confidence",
            "ablate-confidence-steps",
        } <= set(DRIVERS)


class TestFig1:
    def test_summary_fields(self):
        from repro.experiments import fig1

        result = fig1.DRIVER.render(small=True)
        summary = result.series["summary"]
        assert 0.0 <= summary["output_error"] <= 1.0
        assert 0.0 <= summary["coverage"] <= 1.0
        assert "track_drift_px" in result.series

    def test_render_frames(self, tmp_path):
        from repro.experiments import fig1
        from repro.experiments.common import run_precise_reference
        from repro.sim.tracesim import Mode, TraceSimulator
        from repro.workloads.registry import get_workload

        reference = run_precise_reference("bodytrack", small=True)
        sim = TraceSimulator(Mode.LVA)
        approx = get_workload("bodytrack", small=True).execute(sim, 0)
        precise_path, approx_path = fig1.render_frames(
            reference.output, approx, str(tmp_path), small=True
        )
        for path in (precise_path, approx_path):
            content = open(path).read().splitlines()
            assert content[0] == "P2"


class TestSensitivity:
    def test_baseline_row_is_zero_delta(self):
        from repro.experiments import sensitivity

        result = sensitivity.DRIVER.render(small=True)
        assert result.series["mpki_delta"]["baseline"] == 0.0
        assert result.series["error_delta"]["baseline"] == 0.0

    def test_all_perturbations_present(self):
        from repro.experiments import sensitivity

        result = sensitivity.DRIVER.render(small=True)
        rows = set(result.series["mpki"])
        assert "confidence_window-low" in rows
        assert "approximation_degree-high" in rows

    def test_relaxed_window_reduces_mpki(self):
        from repro.experiments import sensitivity

        result = sensitivity.DRIVER.render(small=True)
        assert (
            result.series["mpki"]["confidence_window-high"]
            <= result.series["mpki"]["confidence_window-low"]
        )
