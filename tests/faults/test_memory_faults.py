"""Memory-fault models and their wiring into the simulated runs."""

from __future__ import annotations

import math

from repro import faults
from repro.experiments import common, fault_ablation
from repro.faults import MemoryFaultModel, parse_spec
from repro.faults.memory import build_memory_model
from repro.sim.tracesim import Mode


class TestMemoryFaultModel:
    def test_same_seed_same_fault_pattern(self):
        a = MemoryFaultModel(flip_prob=0.3, seed=7)
        b = MemoryFaultModel(flip_prob=0.3, seed=7)
        outcomes_a = [a.corrupt_value(1.5, True) for _ in range(200)]
        outcomes_b = [b.corrupt_value(1.5, True) for _ in range(200)]
        assert outcomes_a == outcomes_b
        assert a.flips == b.flips > 0

    def test_different_seeds_differ(self):
        a = MemoryFaultModel(flip_prob=0.3, seed=7)
        b = MemoryFaultModel(flip_prob=0.3, seed=8)
        assert [a.corrupt_value(1.5, True)[1] for _ in range(200)] != [
            b.corrupt_value(1.5, True)[1] for _ in range(200)
        ]

    def test_mantissa_flips_keep_floats_finite(self):
        model = MemoryFaultModel(flip_prob=1.0, seed=1)
        for _ in range(100):
            value, flipped = model.corrupt_value(3.14159, True)
            assert flipped
            assert math.isfinite(value)
            assert value != 3.14159

    def test_int_flips_stay_within_width(self):
        model = MemoryFaultModel(flip_prob=1.0, width=8, seed=2)
        for _ in range(100):
            value, flipped = model.corrupt_value(0, False)
            assert flipped
            assert 0 <= value < 256

    def test_zero_probability_never_fires(self):
        model = MemoryFaultModel(flip_prob=0.0, drop_prob=0.0, seed=3)
        assert model.corrupt_value(42, False) == (42, False)
        assert not model.drop_fetch()
        assert model.flips == model.drops == 0

    def test_drop_fetch_probability_one(self):
        model = MemoryFaultModel(drop_prob=1.0, seed=4)
        assert all(model.drop_fetch() for _ in range(20))
        assert model.drops == 20

    def test_from_clauses_reads_parameters(self):
        model = MemoryFaultModel.from_clauses(
            parse_spec("flip:prob=0.25,bits=2,region=exponent;drop:prob=0.5")
        )
        assert model.flip_prob == 0.25
        assert model.bits == 2
        assert model.region == "exponent"
        assert model.drop_prob == 0.5

    def test_engine_only_spec_builds_no_model(self):
        assert MemoryFaultModel.from_clauses(parse_spec("crash:workload=x")) is None


class TestActivationContext:
    def test_context_spec_canonicalised(self):
        with faults.memory_faults("flip:seed=3,prob=0.05"):
            assert faults.active_memory_spec() == "flip:prob=0.05,seed=3"
        assert faults.active_memory_spec() == ""

    def test_engine_clauses_do_not_leak_into_memory_spec(self):
        with faults.memory_faults("crash:workload=x;flip:prob=0.5"):
            assert faults.active_memory_spec() == "flip:prob=0.5"

    def test_suppression_wins(self):
        with faults.memory_faults("flip:prob=0.5"):
            with faults.no_memory_faults():
                assert faults.active_memory_spec() == ""
                assert build_memory_model() is None
            assert faults.active_memory_spec() == "flip:prob=0.5"

    def test_environment_spec_applies(self, monkeypatch):
        monkeypatch.setenv(faults.INJECT_ENV, "drop:prob=0.125")
        assert faults.active_memory_spec() == "drop:prob=0.125"

    def test_context_overrides_environment(self, monkeypatch):
        monkeypatch.setenv(faults.INJECT_ENV, "drop:prob=0.125")
        with faults.memory_faults("flip:prob=0.5"):
            assert faults.active_memory_spec() == "flip:prob=0.5"


class TestResultIsolation:
    def test_faulty_and_clean_results_get_distinct_keys(self, fresh_results):
        clean = common.run_technique("blackscholes", Mode.LVA, small=True)
        with faults.memory_faults("flip:prob=0.2"):
            faulty = common.run_technique("blackscholes", Mode.LVA, small=True)
        techniques = [key for key in common._RESULTS if key[0].kind == "technique"]
        assert len(techniques) == 2
        assert faulty.raw["value_bit_flips"] > 0
        assert clean.raw["value_bit_flips"] == 0
        # Flipped memory values must actually change the measurement.
        assert faulty.output_error != clean.output_error or (
            faulty.normalized_mpki != clean.normalized_mpki
        )

    def test_disk_key_embeds_fault_spec(self):
        clean_key = common.technique_disk_key(
            "blackscholes", Mode.LVA, None, 4, 0, True, (), ""
        )
        faulty_key = common.technique_disk_key(
            "blackscholes", Mode.LVA, None, 4, 0, True, (), "flip:prob=0.2"
        )
        assert clean_key != faulty_key

    def test_precise_reference_is_immune(self, fresh_results):
        clean = common.run_precise_reference("blackscholes", small=True)
        common._RESULTS.clear()
        with faults.memory_faults("flip:prob=1.0;drop:prob=0.5"):
            under_faults = common.run_precise_reference("blackscholes", small=True)
        assert clean.output == under_faults.output
        assert clean.mpki == under_faults.mpki


class TestFaultAblationDriver:
    def test_points_cover_every_level_and_workload(self):
        pts = fault_ablation.DRIVER.points(small=True)
        assert len(pts) == len(fault_ablation.WORKLOADS) * len(
            fault_ablation.FAULT_LEVELS
        )
        specs = {p.faults for p in pts}
        assert "" in specs and len(specs) == len(fault_ablation.FAULT_LEVELS)

    def test_run_reports_error_and_coverage_per_level(self, fresh_results):
        result = fault_ablation.DRIVER.render(small=True)
        for tag, _ in fault_ablation.FAULT_LEVELS:
            assert f"error@{tag}" in result.series
            assert f"coverage@{tag}" in result.series
        # The injected dose must be visible in the fault counters, and
        # the clean column must really be clean. (The error metrics are
        # threshold-counting, so on the small inputs a handful of flips
        # may legitimately not move them — the counters always do.)
        for workload in fault_ablation.WORKLOADS:
            assert result.series["bitflips@clean"][workload] == 0
            assert result.series["drops@clean"][workload] == 0
            assert result.series["bitflips@flip-1e-1"][workload] > 0
            assert result.series["drops@drop-1e-2"][workload] > 0
        # Dropped fetches starve training, so coverage must respond.
        clean_cov = result.series["coverage@clean"]
        dropped_cov = result.series["coverage@drop-1e-2"]
        assert any(dropped_cov[w] != clean_cov[w] for w in fault_ablation.WORKLOADS)
