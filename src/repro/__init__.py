"""repro — a full reproduction of *Load Value Approximation* (MICRO 2014).

Load value approximation (LVA) serves L1 load misses to error-tolerant data
with values *generated* by a small hardware approximator, removing the miss
from the critical path without speculation or rollback, and — via the
approximation degree — without even fetching the block.

Public API tour — the facade (:mod:`repro.api`) is the supported entry
point for programmatic use::

    from repro import Simulation, lva

    result = (
        Simulation.builder()
        .workload("canneal", small=True)
        .approximator(lva(window=0.05, degree=4))
        .compare_precise()
        .run()
    )
    print(result.summary())

The lower layers stay importable for tooling and tinkering::

    from repro import (
        ApproximatorConfig, LoadValueApproximator,   # the contribution
        TraceSimulator, Mode,                        # phase-1 (Pin-style) sim
        FullSystemSimulator, FullSystemConfig,       # phase-2 platform
        get_workload, workload_names,                # PARSEC-substitute apps
    )

    approx = LoadValueApproximator(ApproximatorConfig(approximation_degree=4))
    decision = approx.on_miss(pc=0x400, is_float=True)
    if decision.approximated:
        value = decision.value          # the core continues with this
    if decision.fetch:                  # train when the block arrives
        approx.train(decision.token, actual_value)

Subpackages:

* :mod:`repro.core` — approximator, confidence, degree, GHB/LHB, hashing,
  plus the idealized LVP baseline;
* :mod:`repro.mem` — set-associative LRU cache, MSI coherence, DRAM timing;
* :mod:`repro.prefetch` — GHB prefetcher baseline;
* :mod:`repro.noc` — 2x2 mesh network model;
* :mod:`repro.cpu` — out-of-order core timing model;
* :mod:`repro.energy` — CACTI-style energy accounting;
* :mod:`repro.sim` — phase-1 trace-driven simulator and memory front-end;
* :mod:`repro.fullsystem` — phase-2 4-core full-system simulator;
* :mod:`repro.workloads` — the seven PARSEC-substitute benchmarks;
* :mod:`repro.experiments` — drivers regenerating every table and figure.
"""

from repro.annotations import AuditingMemory, AuditReport, audit_workload
from repro.api import (
    RunResult,
    Simulation,
    SimulationBuilder,
    audit,
    build_approximator,
    lva,
    replay,
    run_experiment,
)
from repro.core.approximator import ApproximationDecision, LoadValueApproximator
from repro.core.config import BASELINE_CONFIG, INFINITE_WINDOW, ApproximatorConfig
from repro.predictors.lvp import IdealizedLoadValuePredictor
from repro.errors import (
    AddressError,
    ConfigurationError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from repro.fullsystem import FullSystemConfig, FullSystemResult, FullSystemSimulator
from repro.sim.frontend import PreciseMemory
from repro.sim.trace import PackedTrace, Trace, TraceRecorder
from repro.sim.tracesim import Mode, TraceSimulator
from repro.workloads.registry import get_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "AddressError",
    "AuditReport",
    "AuditingMemory",
    "audit_workload",
    "ApproximationDecision",
    "ApproximatorConfig",
    "BASELINE_CONFIG",
    "ConfigurationError",
    "FullSystemConfig",
    "FullSystemResult",
    "FullSystemSimulator",
    "IdealizedLoadValuePredictor",
    "INFINITE_WINDOW",
    "LoadValueApproximator",
    "Mode",
    "PackedTrace",
    "PreciseMemory",
    "ReproError",
    "RunResult",
    "Simulation",
    "SimulationBuilder",
    "SimulationError",
    "Trace",
    "TraceRecorder",
    "TraceSimulator",
    "WorkloadError",
    "audit",
    "build_approximator",
    "get_workload",
    "lva",
    "replay",
    "run_experiment",
    "workload_names",
]
