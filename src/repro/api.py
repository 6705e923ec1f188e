"""`repro.api` — the supported programmatic entry point.

One fluent builder covers the whole phase-1 methodology (precise
baseline, technique run, output error, telemetry), and small helpers
cover the rest of the library surface::

    from repro.api import Simulation, lva

    result = (
        Simulation.builder()
        .workload("canneal", small=True)
        .approximator(lva(window=0.05, degree=4))
        .compare_precise()
        .run()
    )
    print(result.mpki, result.coverage, result.output_error)

Everything the builder produces is a frozen :class:`RunResult` — plain
data, safe to stash, compare and serialize. The helpers:

* :func:`lva` — an :class:`~repro.core.config.ApproximatorConfig` with
  the paper's short parameter names (``window``, ``degree``, ``ghb``);
* :func:`build_approximator` — a bare registry predictor (the paper's
  :class:`~repro.core.approximator.LoadValueApproximator` by default)
  to drive by hand;
* :func:`audit` — annotation audit of a workload (Section IV);
* :func:`run_experiment` — any table/figure by runner name, through its
  :class:`~repro.experiments.common.Driver`;
* :func:`replay` — a captured trace through the phase-2 full-system
  platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.core.config import ApproximatorConfig
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.predictors.base import MissPredictor
    from repro.workloads.base import Workload

__all__ = [
    "RunResult",
    "Simulation",
    "SimulationBuilder",
    "audit",
    "build_approximator",
    "lva",
    "replay",
    "run_experiment",
]


#: Short parameter names (as in :func:`lva`) -> ApproximatorConfig fields.
_SHORT_NAMES = {
    "window": "confidence_window",
    "degree": "approximation_degree",
    "ghb": "ghb_size",
    "lhb": "lhb_size",
}


def lva(
    *,
    window: Optional[float] = None,
    degree: Optional[int] = None,
    ghb: Optional[int] = None,
    lhb: Optional[int] = None,
    table_entries: Optional[int] = None,
    value_delay: Optional[int] = None,
    mantissa_drop_bits: Optional[int] = None,
    compute_fn: Optional[str] = None,
    predictor: Optional[str] = None,
    **extra: object,
) -> ApproximatorConfig:
    """An approximator config using the paper's short names.

    ``window`` is the confidence window W, ``degree`` the approximation
    degree, ``ghb``/``lhb`` the history-buffer sizes, ``predictor`` the
    registry name a ``Mode.PREDICTOR`` run resolves. Any other
    :class:`~repro.core.config.ApproximatorConfig` field can be passed
    by its full name through ``extra``.
    """
    kwargs: Dict[str, object] = dict(extra)
    if window is not None:
        kwargs["confidence_window"] = window
    if degree is not None:
        kwargs["approximation_degree"] = degree
    if ghb is not None:
        kwargs["ghb_size"] = ghb
    if lhb is not None:
        kwargs["lhb_size"] = lhb
    if table_entries is not None:
        kwargs["table_entries"] = table_entries
    if value_delay is not None:
        kwargs["value_delay"] = value_delay
    if mantissa_drop_bits is not None:
        kwargs["mantissa_drop_bits"] = mantissa_drop_bits
    if compute_fn is not None:
        kwargs["compute_fn"] = compute_fn
    if predictor is not None:
        kwargs["predictor"] = predictor
    try:
        return ApproximatorConfig(**kwargs)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ConfigurationError(f"lva(): {exc}") from exc


def build_approximator(
    config: Optional[ApproximatorConfig] = None,
) -> "MissPredictor":
    """A bare predictor to drive by hand (``on_miss``/``train``).

    Routed through the registry: ``config.predictor`` (default
    ``"lva"``) names which entry is built, so
    ``build_approximator(lva(predictor="clp"))`` hands back a
    :class:`~repro.predictors.clp.CacheLevelPredictor` and the bare
    default remains the paper's
    :class:`~repro.core.approximator.LoadValueApproximator`.
    """
    from repro import predictors

    config = config or ApproximatorConfig()
    return predictors.create(config.predictor, config)


@dataclass(frozen=True)
class RunResult:
    """One simulated run, frozen: metrics, raw stats, outputs.

    ``output_error`` is only present when the run was built with
    :meth:`SimulationBuilder.compare_precise`; ``trace`` only with
    :meth:`SimulationBuilder.record_trace`; ``metrics`` holds the
    telemetry registry snapshot when telemetry was enabled (empty
    otherwise).
    """

    workload: str
    mode: str
    seed: int
    instructions: int
    mpki: float
    raw_mpki: float
    coverage: float
    fetches_per_ki: float
    #: Registry name of the predictor that drove the run (``"lva"``,
    #: ``"clp"``, ...); None for precise/prefetch runs.
    predictor: Optional[str] = None
    output_error: Optional[float] = None
    stats: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    output: object = None
    precise_output: object = None
    trace: object = None

    def summary(self) -> str:
        """One line, the way the figures report a run.

        Registry runs name their predictor (``canneal/predictor[clp]``)
        so cross-predictor comparisons stay distinguishable in logs.
        """
        technique = self.mode
        if self.predictor is not None and self.predictor != self.mode:
            technique = f"{self.mode}[{self.predictor}]"
        text = (
            f"{self.workload}/{technique}: mpki={self.mpki:.3f} "
            f"coverage={self.coverage:.1%} fetches/KI={self.fetches_per_ki:.3f}"
        )
        if self.output_error is not None:
            text += f" output-error={self.output_error:.2%}"
        return text


class SimulationBuilder:
    """Fluent configuration for one phase-1 simulation run."""

    def __init__(self) -> None:
        self._workload: object = None
        self._params: Optional[dict] = None
        self._small = False
        self._mode_name = "precise"
        self._config: Optional[ApproximatorConfig] = None
        self._prefetch_degree = 4
        self._seed = 0
        self._compare = False
        self._record = False

    # -- what to run ----------------------------------------------------- #

    def workload(
        self,
        workload: object,
        params: Optional[dict] = None,
        small: bool = False,
    ) -> "SimulationBuilder":
        """The application: a registry name or a Workload instance."""
        self._workload = workload
        self._params = params
        self._small = small
        return self

    def seed(self, seed: int) -> "SimulationBuilder":
        """The workload input seed (default 0)."""
        self._seed = int(seed)
        return self

    # -- which technique ------------------------------------------------- #

    def approximator(
        self, config: Optional[ApproximatorConfig] = None
    ) -> "SimulationBuilder":
        """Serve approximable misses with LVA (see :func:`lva`)."""
        self._mode_name = "lva"
        self._config = config
        return self

    def predictor(
        self,
        name: str,
        config: Optional[ApproximatorConfig] = None,
        **overrides: object,
    ) -> "SimulationBuilder":
        """Serve approximable misses with a registry predictor by name.

        ``name`` is a :mod:`repro.predictors` registry name (``"lva"``,
        ``"lvp"``, ``"clp"``, ``"hybrid"``, ...); ``overrides`` take the
        short parameter names of :func:`lva` and are applied on top of
        ``config`` (or the baseline). Unknown names raise immediately,
        listing what is registered::

            Simulation.builder().workload("canneal").predictor("clp").run()
        """
        if not isinstance(name, str):
            raise ConfigurationError(
                f"predictor() wants a registry name, got {name!r}"
            )
        from repro import predictors

        predictors.get_info(name)  # unknown names fail loudly here
        base = config if config is not None else ApproximatorConfig()
        expanded = {_SHORT_NAMES.get(k, k): v for k, v in overrides.items()}
        try:
            self._config = base.with_overrides(predictor=name, **expanded)
        except TypeError as exc:
            raise ConfigurationError(f"predictor(): {exc}") from exc
        self._mode_name = "predictor"
        return self

    def prefetcher(self, degree: int = 4) -> "SimulationBuilder":
        """The GHB-prefetcher baseline at the given degree."""
        self._mode_name = "prefetch"
        self._prefetch_degree = int(degree)
        return self

    def precise(self) -> "SimulationBuilder":
        """Conventional cache, no technique (the default)."""
        self._mode_name = "precise"
        return self

    # -- what to measure -------------------------------------------------- #

    def compare_precise(self, enabled: bool = True) -> "SimulationBuilder":
        """Also run the precise baseline and report the output error."""
        self._compare = enabled
        return self

    def record_trace(self, enabled: bool = True) -> "SimulationBuilder":
        """Record the load trace (for phase-2 replay; see :func:`replay`)."""
        self._record = enabled
        return self

    def telemetry(
        self,
        trace: Optional[Union[str, Path]] = None,
        snapshot_interval: Optional[int] = None,
        sample: Optional[int] = None,
    ) -> "SimulationBuilder":
        """Enable the :mod:`repro.telemetry` subsystem for this process."""
        from repro import telemetry as _telemetry

        _telemetry.configure(
            on=True,
            trace=trace,
            snapshot_interval=snapshot_interval,
            sample=sample,
        )
        return self

    # -- execution --------------------------------------------------------- #

    def build(self) -> "Simulation":
        """Validate and freeze the configuration."""
        if self._workload is None:
            raise ConfigurationError(
                "Simulation.builder(): call .workload(...) before .build()/.run()"
            )
        return Simulation(self)

    def run(self) -> RunResult:
        """Build and execute in one step."""
        return self.build().run()


class Simulation:
    """A configured run; :meth:`run` executes it and returns the result."""

    def __init__(self, builder: SimulationBuilder) -> None:
        self._b = builder

    @staticmethod
    def builder() -> SimulationBuilder:
        """Start a fluent configuration chain."""
        return SimulationBuilder()

    def _instantiate(self) -> "Workload":
        from repro.workloads.base import Workload
        from repro.workloads.registry import get_workload

        spec = self._b._workload
        if isinstance(spec, str):
            return get_workload(spec, params=self._b._params, small=self._b._small)
        if isinstance(spec, Workload):
            return spec
        if isinstance(spec, type) and issubclass(spec, Workload):
            return spec(self._b._params)
        raise ConfigurationError(
            f"workload must be a registry name or Workload, got {spec!r}"
        )

    def run(self) -> RunResult:
        """Execute the configured run (plus baseline, when requested)."""
        from repro import telemetry as _telemetry
        from repro.sim.frontend import PreciseMemory
        from repro.sim.trace import TraceRecorder
        from repro.sim.tracesim import Mode, TraceSimulator

        b = self._b
        workload = self._instantiate()
        mode = Mode(b._mode_name)

        precise_output = None
        if b._compare:
            # Workload.execute() seeds a fresh RNG per call, so the same
            # instance replays identically for the baseline.
            precise_output = workload.execute(PreciseMemory(), b._seed)

        recorder = TraceRecorder() if b._record else None
        sim = TraceSimulator(
            mode,
            approximator_config=b._config,
            prefetch_degree=b._prefetch_degree,
            recorder=recorder,
        )
        output = workload.execute(sim, b._seed)
        stats = sim.finish()

        output_error = None
        if b._compare:
            output_error = workload.output_error(precise_output, output)

        metrics: Dict[str, float] = {}
        if _telemetry.enabled():
            metrics = _telemetry.metrics().snapshot()

        return RunResult(
            workload=getattr(workload, "name", type(workload).__name__),
            mode=mode.value,
            seed=b._seed,
            predictor=sim.predictor_name,
            instructions=stats.instructions,
            mpki=stats.mpki,
            raw_mpki=stats.raw_mpki,
            coverage=stats.coverage,
            fetches_per_ki=stats.fetches_per_kilo_instruction,
            output_error=output_error,
            stats=stats.as_dict(),
            metrics=metrics,
            output=output,
            precise_output=precise_output,
            trace=recorder.trace if recorder is not None else None,
        )


def audit(
    workload: object,
    params: Optional[dict] = None,
    small: bool = False,
    seed: int = 0,
) -> "AuditReport":
    """Audit a workload's approximable annotations (Section IV)."""
    from repro.annotations import audit_workload
    from repro.workloads.base import Workload
    from repro.workloads.registry import get_workload

    if isinstance(workload, str):
        workload = get_workload(workload, params=params, small=small)
    elif not isinstance(workload, Workload):
        raise ConfigurationError(
            f"audit() wants a registry name or Workload, got {workload!r}"
        )
    return audit_workload(workload, seed=seed)


def run_experiment(
    name: str, small: bool = False, seed: int = 0, repeats: int = 1
) -> "ExperimentResult":
    """Run one table/figure by its runner name (``fig4``, ``table1``...).

    The programmatic mirror of ``python -m repro.experiments NAME``,
    through the experiment's :class:`~repro.experiments.common.Driver`.
    """
    from repro.experiments.common import averaged
    from repro.experiments.runner import DRIVERS

    driver = DRIVERS.get(name)
    if driver is None:
        raise ConfigurationError(
            f"unknown experiment {name!r}; known: {', '.join(sorted(DRIVERS))}"
        )
    if repeats > 1:
        return averaged(driver.render, repeats=repeats, small=small, seed=seed)
    return driver.render(small=small, seed=seed)


def replay(
    trace: object,
    approximator: Optional[ApproximatorConfig] = None,
    approximate: Optional[bool] = None,
) -> "FullSystemResult":
    """Replay a captured trace on the phase-2 full-system platform.

    ``trace`` may be a :class:`~repro.sim.trace.Trace` or a
    :class:`~repro.sim.trace.PackedTrace`; both replay through the packed
    columnar hot path and produce bit-identical results. Replay is *open
    loop* — recorded values are fed back exactly as captured — so it
    measures platform behaviour on a fixed access stream, not live
    output error (use :class:`Simulation` for that).

    ``approximate`` defaults to whether an ``approximator`` config was
    given; pass ``approximate=True`` alone for the baseline LVA config.
    """
    from repro.experiments.common import run_fullsystem

    if approximate is None:
        approximate = approximator is not None
    return run_fullsystem(trace, approximate=approximate, approximator=approximator)
