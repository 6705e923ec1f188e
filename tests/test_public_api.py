"""Public API surface tests: imports, exceptions, docstrings."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import (
    AddressError,
    ConfigurationError,
    ReproError,
    SimulationError,
    WorkloadError,
)

SUBPACKAGES = [
    "repro.telemetry",
    "repro.core",
    "repro.mem",
    "repro.prefetch",
    "repro.noc",
    "repro.cpu",
    "repro.energy",
    "repro.sim",
    "repro.fullsystem",
    "repro.workloads",
    "repro.experiments",
]


class TestImports:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_imports_and_exports(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} missing docstring"
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_version(self):
        assert repro.__version__

    def test_dir_lists_every_export(self):
        assert set(repro.__all__) <= set(dir(repro))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name  # noqa: B018


#: Run in a fresh interpreter: this process has imported everything.
LAZY_SCRIPT = """
import json, sys

def simulators():
    heavy = ("numpy", "repro.api", "repro.sim.tracesim", "repro.fullsystem.system")
    return sorted(name for name in heavy if name in sys.modules)

import repro
steps = {"import repro": simulators()}
from repro import Mode, FullSystemResult
from repro.fullsystem import FullSystemConfig
steps["light names"] = simulators()
from repro import TraceSimulator
steps["TraceSimulator"] = simulators()
from repro import envspec
steps["envspec"] = envspec.__name__
steps["Mode"] = Mode.__module__
steps["experiments"] = repro.experiments.__name__
steps["api"] = repro.api.Simulation.__module__
steps["sim.tracesim"] = repro.sim.tracesim.Mode is Mode
print(json.dumps(steps))
"""


class TestLazyExports:
    def test_names_resolve_on_first_use(self):
        """``import repro`` loads no simulator; each name and subpackage
        resolves when first read, whichever way it is imported."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        completed = subprocess.run(
            [sys.executable, "-c", LAZY_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert json.loads(completed.stdout) == {
            "import repro": [],
            "light names": [],
            "TraceSimulator": ["numpy", "repro.sim.tracesim"],
            "envspec": "repro.envspec",
            "Mode": "repro.sim.mode",
            "experiments": "repro.experiments",
            "api": "repro.api",
            "sim.tracesim": True,
        }


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exc", [ConfigurationError, SimulationError, WorkloadError, AddressError]
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_catchable_as_base(self):
        from repro.core.config import ApproximatorConfig

        with pytest.raises(ReproError):
            ApproximatorConfig(table_entries=7)


class TestFacade:
    """Pin the repro.api surface: names, builder chain, RunResult shape."""

    FACADE_NAMES = [
        "RunResult",
        "Simulation",
        "SimulationBuilder",
        "audit",
        "build_approximator",
        "lva",
        "replay",
        "run_experiment",
    ]

    @pytest.mark.parametrize("name", FACADE_NAMES)
    def test_reexported_from_repro(self, name):
        import repro.api

        assert hasattr(repro.api, name)
        assert hasattr(repro, name)
        assert name in repro.__all__

    def test_lva_maps_short_names(self):
        from repro.api import lva

        config = lva(window=0.2, degree=4, ghb=2, lhb=8, table_entries=512)
        assert config.confidence_window == 0.2
        assert config.approximation_degree == 4
        assert config.ghb_size == 2
        assert config.lhb_size == 8
        assert config.table_entries == 512

    def test_lva_rejects_unknown_field(self):
        from repro.api import lva

        with pytest.raises(ConfigurationError):
            lva(not_a_field=1)

    def test_builder_requires_workload(self):
        from repro.api import Simulation

        with pytest.raises(ConfigurationError):
            Simulation.builder().run()

    def test_builder_methods_chain(self):
        from repro.api import Simulation, SimulationBuilder

        builder = Simulation.builder()
        assert isinstance(builder, SimulationBuilder)
        for call in (
            lambda: builder.workload("canneal", small=True),
            lambda: builder.seed(1),
            lambda: builder.approximator(),
            lambda: builder.precise(),
            lambda: builder.compare_precise(),
            lambda: builder.record_trace(),
        ):
            assert call() is builder

    def test_run_returns_frozen_result(self):
        import dataclasses

        from repro.api import RunResult, Simulation, lva

        result = (
            Simulation.builder()
            .workload("canneal", small=True)
            .approximator(lva(degree=4))
            .compare_precise()
            .run()
        )
        assert isinstance(result, RunResult)
        assert result.workload == "canneal"
        assert result.mode == "lva"
        assert result.instructions > 0
        assert 0.0 <= result.coverage <= 1.0
        assert result.output_error is not None
        assert result.stats["raw_misses"] >= result.stats["covered_misses"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.mpki = 0.0
        assert result.workload in result.summary()

    def test_precise_mode_records_trace(self):
        from repro.api import Simulation

        result = (
            Simulation.builder()
            .workload("canneal", small=True)
            .record_trace()
            .run()
        )
        assert result.mode == "precise"
        assert result.output_error is None
        assert result.trace is not None and len(result.trace) > 0

    def test_run_experiment_matches_driver(self):
        from repro.api import run_experiment
        from repro.experiments import fig13

        result = run_experiment("fig13", small=True)
        assert result.series
        assert result.series == fig13.DRIVER.render(small=True).series

    def test_run_experiment_unknown_name(self):
        from repro.api import run_experiment

        with pytest.raises(ConfigurationError):
            run_experiment("fig99")

    def test_audit_accepts_name(self):
        from repro.annotations import AuditReport
        from repro.api import audit

        report = audit("canneal", small=True)
        assert isinstance(report, AuditReport)


class TestDocstrings:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_public_classes_documented(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{module_name}.{name} missing docstring"

    def test_core_public_methods_documented(self):
        from repro.core.approximator import LoadValueApproximator

        for name, member in inspect.getmembers(LoadValueApproximator):
            if name.startswith("_") or not callable(member):
                continue
            assert member.__doc__, f"LoadValueApproximator.{name}"
