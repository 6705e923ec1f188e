"""Tests of the benchmark's own arithmetic (``perfbench/measure.py``).

Run with ``python3 -m pytest perfbench/tests``.
"""

import math

import pytest

import measure

COLD = (
    "sweep: 329 unique points (464 requested), 7 baselines (7 computed), "
    "321 technique runs, 7 disk hits, 8.8s"
)
WARM_PHASE2 = (
    "sweep: 42 unique points (84 requested), 0 baselines (0 computed), 0 technique runs, "
    "42 disk hits, 0.1s, 0 replays, 0 traces captured (7 store hits)"
)


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 11)]
        assert measure.percentile(values, 50) == 5.0
        assert measure.percentile(values, 90) == 9.0
        assert measure.percentile(values, 100) == 10.0
        assert measure.percentile(values, 0) == 1.0

    def test_order_of_input_does_not_matter(self):
        assert measure.percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_samples_beyond(self):
        assert measure.beyond(100, 90) == 10
        assert measure.beyond(99, 90) == 9
        assert measure.beyond(0, 90) == 0

    def test_tail_needs_ten_samples_beyond_it(self):
        assert measure.tail_percentile(list(range(99)), 90) is None
        assert measure.tail_percentile(list(range(100)), 90) == 89

    def test_rejects_no_values_and_bad_ranks(self):
        with pytest.raises(ValueError):
            measure.percentile([], 50)
        with pytest.raises(ValueError):
            measure.percentile([1.0], 101)

    def test_quartile_spread_matches_statistics_quantiles(self):
        # statistics.quantiles([1..5], n=4) is [1.5, 3.0, 4.5].
        assert measure.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


class TestSweepLine:
    def test_phase1_line(self):
        sweep = measure.parse_sweep_line("noise\n" + COLD + "\n\n== Table I ==")
        assert sweep["unique_points"] == 329
        assert sweep["requested_points"] == 464
        assert sweep["baselines"] == 7
        assert sweep["precise_computed"] == 7
        assert sweep["technique_computed"] == 321
        assert sweep["disk_hits"] == 7
        assert sweep["elapsed"] == 8.8
        assert sweep["fullsystem_computed"] == sweep["traces_captured"] == 0
        assert sweep["extras"] == []

    def test_replay_part_and_extras(self):
        line = WARM_PHASE2 + " [2 retried, 1 FAILED]"
        sweep = measure.parse_sweep_line(line)
        assert sweep["fullsystem_computed"] == 0
        assert sweep["traces_captured"] == 0
        assert sweep["trace_store_hits"] == 7
        assert sweep["extras"] == ["2 retried", "1 FAILED"]

    def test_absent_line(self):
        assert measure.parse_sweep_line("== Table I ==\n") is None

    def test_unknown_shape_is_an_error(self):
        with pytest.raises(ValueError):
            measure.parse_sweep_line("sweep: something else entirely")

    def test_cold_rules(self):
        assert measure.cold_sweep_problems(measure.parse_sweep_line(COLD), traces=0) == []
        partly_cached = COLD.replace("(7 computed)", "(5 computed)")
        assert measure.cold_sweep_problems(measure.parse_sweep_line(partly_cached), traces=0)
        captured = (
            "sweep: 42 unique points (84 requested), 0 baselines (0 computed), 0 technique "
            "runs, 0 disk hits, 2.5s, 42 replays, 7 traces captured (13 store hits)"
        )
        assert measure.cold_sweep_problems(measure.parse_sweep_line(captured), traces=7) == []
        assert measure.cold_sweep_problems(measure.parse_sweep_line(captured), traces=8)

    def test_warm_rules(self):
        assert measure.warm_sweep_problems(measure.parse_sweep_line(WARM_PHASE2)) == []
        assert measure.warm_sweep_problems(measure.parse_sweep_line(COLD))
        failed = measure.parse_sweep_line(WARM_PHASE2 + " [1 FAILED]")
        assert measure.warm_sweep_problems(failed)


def fig1_like(drift=1.5, error=0.077):
    """A CLI --json entry whose two series cover different rows."""
    return {
        "name": "Figure 1",
        "series": {
            "summary": {"output_error": error, "coverage": 0.5},
            "track_drift_px": {"t0": 0.0, "t1": drift},
        },
        "averages": {"summary": (error + 0.5) / 2, "track_drift_px": drift / 2},
    }


class TestTables:
    def test_grid_lays_out_the_rendered_table(self):
        grid = measure.table_grid(fig1_like())
        assert grid["labels"] == ["summary", "track_drift_px"]
        assert grid["rows"] == ["output_error", "coverage", "t0", "t1", "average"]
        assert grid["cells"][0][0] == 0.077
        # The layout blanks that the CLI prints as FAILED.
        blanks = [cell for row in grid["cells"] for cell in row if math.isnan(cell)]
        assert len(blanks) == 4

    def test_identical_tables_match_including_layout_blanks(self):
        grid = measure.table_grid(fig1_like())
        assert measure.compare_tables([grid], [measure.table_grid(fig1_like())]) == (0, 10)

    def test_any_changed_value_is_a_difference(self):
        want = [measure.table_grid(fig1_like())]
        got = [measure.table_grid(fig1_like(drift=1.5000000000000002))]
        # The changed cell and the average it feeds.
        assert measure.compare_tables(want, got) == (2, 10)

    def test_a_new_failed_cell_is_a_difference(self):
        want = [measure.table_grid(fig1_like())]
        got = [measure.table_grid(fig1_like(error=math.nan))]
        differing, total = measure.compare_tables(want, got)
        assert total == 10 and differing == 2

    def test_missing_or_extra_cells_and_tables(self):
        want = [measure.table_grid(fig1_like())]
        assert measure.compare_tables(want, []) == (10, 10)
        extra = fig1_like()
        extra["series"]["track_drift_px"]["t2"] = 3.0
        assert measure.compare_tables(want, [measure.table_grid(extra)]) == (2, 12)

    def test_same_cell(self):
        assert measure.same_cell(math.nan, math.nan)
        assert measure.same_cell(3, 3.0)
        assert not measure.same_cell(0.0, math.nan)
        assert not measure.same_cell(1.0, 1.0 + 2**-52)


def dump(slots, layers, root, wall_ns, timer_in=0.0, timer_out=0.0):
    return {
        "slots": slots,
        "layers": layers,
        "root": root,
        "wall_ns": wall_ns,
        "timer_in_ns": timer_in,
        "timer_out_ns": timer_out,
    }


class TestAccounting:
    # One top-level call of A (100 ns) that makes two calls of B (40 ns in
    # all), in a process that lived 150 ns.
    SLOTS = {"a": [1, 100, 40, 2], "b": [2, 40, 0, 0]}
    LAYERS = {"a": "outer", "b": "inner"}

    def test_self_time_is_duration_minus_children(self):
        account = measure.process_accounting(dump(self.SLOTS, self.LAYERS, [100, 1], 150))
        assert account["layers"] == {"outer": 60.0, "inner": 40.0}
        assert account["unattributed_ns"] == 50.0
        assert account["timer_ns"] == 0.0
        assert measure.accounting_problems(account) == []

    def test_timer_cost_is_subtracted_inside_and_around_each_call(self):
        account = measure.process_accounting(
            dump(self.SLOTS, self.LAYERS, [100, 1], 150, timer_in=1.0, timer_out=2.0)
        )
        # a: 100 - 40 - 1 (its own) - 2 * 2 (around its two child calls).
        assert account["layers"] == {"outer": 55.0, "inner": 38.0}
        # 1 + 2*2 for a, 2*1 for b, and 2 around the top-level call.
        assert account["timer_ns"] == 9.0
        assert account["unattributed_ns"] == 48.0
        parts = sum(account["layers"].values()) + account["timer_ns"] + account["unattributed_ns"]
        assert parts == 150.0
        assert measure.accounting_problems(account) == []

    def test_layers_share_self_time_across_functions(self):
        slots = {"a": [1, 100, 40, 2], "b": [2, 40, 0, 0], "c": [1, 10, 0, 0]}
        layers = {"a": "outer", "b": "inner", "c": "inner"}
        account = measure.process_accounting(dump(slots, layers, [110, 2], 200))
        assert account["layers"] == {"outer": 60.0, "inner": 50.0}

    def test_over_subtracted_timer_cost_is_reported(self):
        account = measure.process_accounting(
            dump(self.SLOTS, self.LAYERS, [100, 1], 150, timer_in=30.0)
        )
        assert any("inner is negative" in p for p in measure.accounting_problems(account))

    def test_spans_longer_than_the_process_are_reported(self):
        account = measure.process_accounting(dump(self.SLOTS, self.LAYERS, [100, 1], 80))
        assert any("unattributed is negative" in p for p in measure.accounting_problems(account))
