"""The predictor registry contract (repro.predictors).

Every registered predictor — current and future — must satisfy the same
observable contract when driven through the standard pipeline: stats are
deterministic, rollback predictors have zero output error, unknown names
fail with an inventory, and no two predictors can share a cache entry.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import predictors
from repro.api import Simulation
from repro.core.config import ApproximatorConfig
from repro.errors import ConfigurationError
from repro.experiments.common import technique_disk_key
from repro.predictors import MissPredictor
from repro.sim.tracesim import Mode, TraceSimulator

#: Smallest workload in the registry — keeps the parametrized matrix cheap.
WORKLOAD = "swaptions"

ALL = predictors.available_predictors()


def _run(name: str, seed: int = 0):
    return (
        Simulation.builder()
        .workload(WORKLOAD, small=True)
        .predictor(name)
        .seed(seed)
        .compare_precise()
        .run()
    )


class TestRegistryShape:
    def test_builtin_predictors_are_registered(self):
        assert {"lva", "lvp", "clp", "hybrid"} <= set(ALL)

    @pytest.mark.parametrize("name", ALL)
    def test_every_entry_satisfies_the_protocol(self, name):
        built = predictors.create(name)
        assert isinstance(built, MissPredictor)
        assert isinstance(built.config, ApproximatorConfig)
        assert built.allocated_entries == 0
        built.reset()

    def test_unknown_name_lists_available(self):
        with pytest.raises(ConfigurationError) as excinfo:
            predictors.create("definitely-not-registered")
        message = str(excinfo.value)
        for name in ALL:
            assert name in message

    def test_unknown_name_fails_at_the_builder_too(self):
        with pytest.raises(ConfigurationError, match="available"):
            Simulation.builder().workload(WORKLOAD).predictor("nope")

    def test_builder_requires_a_registry_name(self):
        with pytest.raises(ConfigurationError, match="registry name"):
            Simulation.builder().workload(WORKLOAD).predictor(ApproximatorConfig())

    def test_duplicate_registration_rejected(self):
        info = predictors.get_info("lva")
        with pytest.raises(ConfigurationError, match="already registered"):
            predictors.register_predictor(info)


class TestRegistryContract:
    @pytest.mark.parametrize("name", ALL)
    def test_deterministic_stats_across_two_seeded_runs(self, name):
        first = _run(name, seed=3)
        second = _run(name, seed=3)
        assert first.stats == second.stats
        assert first.mpki == second.mpki
        assert first.coverage == second.coverage
        assert first.output_error == second.output_error

    @pytest.mark.parametrize(
        "name",
        [n for n in ALL if predictors.get_info(n).zero_output_error],
    )
    def test_rollback_predictors_have_zero_output_error(self, name):
        assert _run(name).output_error == 0.0

    def test_lvp_and_clp_declare_zero_output_error(self):
        assert predictors.get_info("lvp").zero_output_error
        assert predictors.get_info("clp").zero_output_error

    @pytest.mark.parametrize("name", ALL)
    def test_cache_keys_differ_across_predictor_names(self, name):
        keys = {
            technique_disk_key(
                WORKLOAD,
                Mode.PREDICTOR,
                ApproximatorConfig(predictor=other),
                4,
                0,
                True,
                (),
            )
            for other in ALL
        }
        assert len(keys) == len(ALL)
        # ... and the override key component splits again from all of them.
        overridden = technique_disk_key(
            WORKLOAD,
            Mode.PREDICTOR,
            ApproximatorConfig(predictor=name),
            4,
            0,
            True,
            (),
            predictor_override="clp",
        )
        assert overridden not in keys


class TestModeResolution:
    def test_fixed_modes_pin_their_historical_names(self):
        assert TraceSimulator(Mode.LVA).predictor_name == "lva"
        assert TraceSimulator(Mode.LVP).predictor_name == "lvp"
        assert TraceSimulator(Mode.PRECISE).predictor_name is None

    def test_predictor_mode_reads_the_config_field(self):
        sim = TraceSimulator(
            Mode.PREDICTOR,
            approximator_config=ApproximatorConfig(predictor="clp"),
        )
        assert sim.predictor_name == "clp"
        assert sim.generic_predictor is not None
        assert sim.approximator is None and sim.predictor is None

    def test_env_override_retargets_predictor_mode_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREDICTOR", "hybrid")
        assert TraceSimulator(Mode.PREDICTOR).predictor_name == "hybrid"
        assert TraceSimulator(Mode.LVA).predictor_name == "lva"
        assert predictors.active_override("lva") == ""
        assert predictors.active_override("predictor") == "hybrid"

    def test_result_summary_names_the_predictor(self):
        result = _run("clp")
        assert result.predictor == "clp"
        assert "predictor[clp]" in result.summary()

    def test_fixed_mode_summary_is_unchanged(self):
        result = (
            Simulation.builder()
            .workload(WORKLOAD, small=True)
            .approximator()
            .run()
        )
        assert result.summary().startswith(f"{WORKLOAD}/lva:")


class TestBitIdentityWithFixedModes:
    @pytest.mark.parametrize("fixed,name", [(Mode.LVA, "lva"), (Mode.LVP, "lvp")])
    def test_registry_resolution_matches_hardcoded_mode(self, fixed, name):
        from repro.experiments.common import run_technique

        direct = run_technique(WORKLOAD, fixed, small=True)
        registry = run_technique(
            WORKLOAD,
            Mode.PREDICTOR,
            config=ApproximatorConfig(predictor=name),
            small=True,
        )
        assert dataclasses.asdict(direct) == dataclasses.asdict(registry)
