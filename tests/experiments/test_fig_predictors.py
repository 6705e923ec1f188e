"""fig_predictors: the cross-predictor comparison experiment.

The critical guarantee here is regression-pinning: the ``lva`` and
``lvp`` columns must be bit-identical to the pre-registry hard-coded
``Mode.LVA`` / ``Mode.LVP`` implementations on every baseline workload.
``expected/fig_predictors_small.json`` was generated from the tree
*before* the registry refactor landed and must never be regenerated to
make this suite pass.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.config import ApproximatorConfig
from repro.experiments import fig_predictors, runner
from repro.experiments.common import BASELINE_WORKLOADS, point_disk_key, run_technique
from repro.sim.tracesim import Mode

EXPECTED = Path(__file__).parent / "expected" / "fig_predictors_small.json"

with EXPECTED.open() as fh:
    PINNED = json.load(fh)


class TestDriver:
    def test_registered_in_runner(self):
        assert "fig_predictors" in runner.DRIVERS
        assert runner.DRIVERS["fig_predictors"] is fig_predictors.DRIVER

    def test_points_cover_the_full_matrix_with_distinct_keys(self):
        points = fig_predictors.DRIVER.points(small=True)
        expected = len(BASELINE_WORKLOADS) * len(fig_predictors.PREDICTORS)
        assert len(points) == expected
        keys = {point_disk_key(p) for p in points}
        assert len(keys) == expected

    def test_sweeps_at_least_four_predictors(self):
        assert len(fig_predictors.PREDICTORS) >= 4
        assert len(set(fig_predictors.PREDICTORS)) == len(fig_predictors.PREDICTORS)


class TestPinnedBitIdentity:
    """Registry-resolved lva/lvp vs the pre-refactor pinned results."""

    @pytest.mark.parametrize("workload", BASELINE_WORKLOADS)
    @pytest.mark.parametrize("name,mode", [("lva", Mode.LVA), ("lvp", Mode.LVP)])
    def test_registry_column_matches_pre_refactor_pin(self, workload, name, mode):
        pinned = PINNED[f"{workload}/{name}"]
        via_registry = run_technique(
            workload,
            Mode.PREDICTOR,
            config=ApproximatorConfig(predictor=name),
            small=True,
        )
        assert dataclasses.asdict(via_registry) == pinned
        # The fixed mode still reproduces its own pin, too.
        direct = run_technique(workload, mode, small=True)
        assert dataclasses.asdict(direct) == pinned

    def test_pin_file_covers_every_workload(self):
        expected_keys = {
            f"{w}/{n}" for w in BASELINE_WORKLOADS for n in ("lva", "lvp")
        }
        assert set(PINNED) == expected_keys


class TestRenderedTable:
    def test_rows_and_rollback_error_columns(self):
        result = fig_predictors.DRIVER.render(small=True)
        families = {label.split(":")[0] for label in result.series}
        assert families == {"mpki", "cov", "err"}
        for predictor in fig_predictors.PREDICTORS:
            assert f"mpki:{predictor}" in result.series
        # Rollback predictors: zero output error on every workload.
        for predictor in ("lvp", "clp"):
            assert all(v == 0.0 for v in result.series[f"err:{predictor}"].values())
        # The lva error column matches the pin exactly.
        for workload in BASELINE_WORKLOADS:
            assert (
                result.series["err:lva"][workload]
                == PINNED[f"{workload}/lva"]["output_error"]
            )
