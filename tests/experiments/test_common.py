"""Tests for the shared experiment infrastructure."""

import pytest

from repro.experiments import common
from repro.experiments.common import (
    PHASE2_PARAMS,
    run_fullsystem,
    run_precise_reference,
    run_technique,
)
from repro.sim.tracesim import Mode


def test_baseline_workloads_follow_the_registry():
    """The literal figure order is the registry's: naming the workloads
    must not need their classes, but must not drift from them either."""
    from repro.workloads.registry import workload_names

    assert common.BASELINE_WORKLOADS == tuple(workload_names())


@pytest.fixture(autouse=True)
def _fresh():
    common.reset_caches()
    yield
    common.reset_caches()


class TestPreciseReference:
    def test_fields_populated(self):
        ref = run_precise_reference("swaptions", small=True)
        assert ref.instructions > 0
        assert ref.mpki >= 0
        assert ref.output is not None

    def test_params_key_cache_separation(self):
        a = run_precise_reference("swaptions", small=True)
        b = run_precise_reference(
            "swaptions", small=True, params={"n_swaptions": 8}
        )
        assert a is not b

    def test_seed_cache_separation(self):
        a = run_precise_reference("swaptions", seed=0, small=True)
        b = run_precise_reference("swaptions", seed=1, small=True)
        assert a is not b


class TestRunTechnique:
    def test_precise_mode_is_identity(self):
        result = run_technique("swaptions", Mode.PRECISE, small=True)
        assert result.normalized_mpki == pytest.approx(1.0)
        assert result.normalized_fetches == pytest.approx(1.0)
        assert result.output_error == 0.0
        assert result.instruction_variation == 0.0

    def test_lva_fields(self):
        result = run_technique("canneal", Mode.LVA, small=True)
        assert 0 <= result.normalized_mpki <= 1.1
        assert 0 <= result.coverage <= 1
        assert result.static_approx_pcs > 0
        assert "mpki" in result.raw


class TestPhase2Params:
    def test_overrides_are_known_parameters(self):
        from repro.workloads.registry import get_workload

        for name, params in PHASE2_PARAMS.items():
            workload = get_workload(name, params)  # raises on unknown keys
            for key, value in params.items():
                assert workload.params[key] == value

    def test_trace_capture_uses_overrides(self):
        trace = common.capture_trace("canneal", small=True)
        assert len(trace) > 0


class TestRunFullsystem:
    def test_baseline_and_lva(self):
        trace = common.capture_trace("blackscholes", small=True)
        base = run_fullsystem(trace)
        lva = run_fullsystem(trace, approximate=True)
        assert base.loads == lva.loads
