"""Shared infrastructure for the experiment drivers.

The paper's two-phase methodology is mirrored exactly:

* **Phase 1** (design space, Sections VI-A..D): run the workload against a
  :class:`TraceSimulator` in PRECISE mode and in the technique mode under
  study; report MPKI normalized to precise, fetches normalized to precise,
  and application output error versus the precise output.
* **Phase 2** (full system, Section VI-E): capture a 4-thread trace from
  the precise run and replay it through :class:`FullSystemSimulator` with
  and without approximation.

Precise reference runs are cached per (workload, seed, scale) because every
sweep point needs the same baseline.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

from repro import faults, telemetry
from repro.core.config import ApproximatorConfig
from repro.predictors import registry as predictor_registry
from repro.energy.model import EnergyBreakdown
from repro.experiments import diskcache, tracestore
from repro.fullsystem import FullSystemConfig, FullSystemResult, FullSystemSimulator
from repro.sim.trace import PackedTrace, Trace, TraceRecorder
from repro.sim.tracesim import Mode, TraceSimulator
from repro.workloads.registry import get_workload, workload_names

if TYPE_CHECKING:  # avoid the common <-> sweep import cycle at runtime
    from repro.experiments.sweep import SweepPoint

#: Canonical workload order used by every figure.
BASELINE_WORKLOADS: Tuple[str, ...] = tuple(workload_names())

#: Phase-2 workload parameter overrides — the paper's full-system runs use
#: the smaller *simmedium* inputs; these overrides play the same role,
#: rebalancing compute per miss for the scaled-down 16 KB L1 platform.
PHASE2_PARAMS: Dict[str, dict] = {
    "canneal": {"compute_cost": 1600},
    "bodytrack": {"compute_cost": 400},
}


@dataclass
class ExperimentResult:
    """A table/figure reproduction: labelled series of per-workload values.

    ``series[label][workload]`` holds the measured value; ``meta`` records
    experiment-level context (units, the paper's headline numbers, etc.).
    """

    name: str
    description: str
    series: Dict[str, Dict[str, float]] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    def add(self, label: str, workload: str, value: float) -> None:
        """Record one measured point."""
        self.series.setdefault(label, {})[workload] = value

    def average(self, label: str) -> float:
        """Arithmetic mean of one series across workloads.

        FAILED cells (NaN, from sweep points that exhausted their
        retries) are excluded so one lost point does not poison the
        whole row; an all-failed series averages to NaN.
        """
        values = [v for v in self.series[label].values() if not math.isnan(v)]
        if not values:
            return float("nan") if self.series[label] else 0.0
        return sum(values) / len(values)

    @staticmethod
    def _cell(value: Optional[float]) -> str:
        """One table cell: a row the series has no value for renders as
        ``—`` (as in :func:`repro.experiments.report.to_markdown`); NaN
        renders as an explicit FAILED marker."""
        if value is None:
            return f"{'—':>12}"
        if math.isnan(value):
            return f"{'FAILED':>12}"
        return f"{value:>12.4f}"

    def format_table(self) -> str:
        """Render the result the way the paper's figure reports it."""
        labels = list(self.series)
        workloads: List[str] = []
        for s in self.series.values():
            for w in s:
                if w not in workloads:
                    workloads.append(w)
        width = max([len(w) for w in workloads] + [9])
        header = f"{'benchmark':<{width}} " + " ".join(f"{l:>12}" for l in labels)
        lines = [f"== {self.name}: {self.description} ==", header]
        for workload in workloads:
            cells = " ".join(self._cell(self.series[l].get(workload)) for l in labels)
            lines.append(f"{workload:<{width}} {cells}")
        averages = " ".join(self._cell(self.average(l)) for l in labels)
        lines.append(f"{'average':<{width}} {averages}")
        return "\n".join(lines)

    def format_chart(self, label: str, bar_width: int = 48) -> str:
        """Render one series as a horizontal ASCII bar chart.

        Handy for eyeballing a figure's shape straight from the CLI
        without any plotting dependency.
        """
        series = self.series[label]
        if not series:
            return f"{self.name} / {label}: (empty)"
        peak = max(abs(v) for v in series.values()) or 1.0
        name_width = max(len(k) for k in series)
        lines = [f"{self.name} — {label} (full bar = {peak:.4g})"]
        for workload, value in series.items():
            filled = int(round(abs(value) / peak * bar_width))
            bar = "#" * filled
            sign = "-" if value < 0 else ""
            lines.append(f"{workload:<{name_width}} |{bar:<{bar_width}}| {sign}{abs(value):.4f}")
        return "\n".join(lines)


def averaged(
    driver: "Callable[..., ExperimentResult]",
    repeats: int = 5,
    small: bool = False,
    seed: int = 0,
) -> ExperimentResult:
    """Run a driver over ``repeats`` seeds and average every series.

    The paper averages all measurements over 5 simulation runs
    (Section V-A); this wrapper applies the same protocol to any
    ``(small, seed) -> ExperimentResult`` callable such as
    ``DRIVER.render``, using seeds ``seed, seed+1, ...``.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    results = [driver(small=small, seed=seed + i) for i in range(repeats)]
    merged = ExperimentResult(
        name=results[0].name,
        description=f"{results[0].description} (mean of {repeats} seeds)",
        meta=dict(results[0].meta),
    )
    for label in results[0].series:
        for workload in results[0].series[label]:
            values = [r.series[label][workload] for r in results]
            merged.add(label, workload, sum(values) / len(values))
    return merged


@runtime_checkable
class ExperimentDriver(Protocol):
    """The one experiment-driver contract.

    Every figure/table module exposes one ``DRIVER`` (the ablations
    module a ``DRIVERS`` mapping); the runner, the sweep engine and
    programmatic callers all speak to this protocol:

    * :meth:`points` — declare the sweep points this experiment needs
      (empty for experiments that cannot be decomposed, e.g. the
      full-system replays);
    * :meth:`render` — assemble the figure/table from the result caches
      the sweep engine warmed, computing any point they lack.
    """

    name: str

    def points(self, small: bool = False, seed: int = 0) -> "List[SweepPoint]": ...

    def render(self, small: bool = False, seed: int = 0) -> ExperimentResult: ...


@dataclass(frozen=True)
class Driver:
    """Concrete :class:`ExperimentDriver` wrapping a driver module's
    render and point-declaration functions."""

    name: str
    render_fn: Callable[..., ExperimentResult]
    points_fn: Optional[Callable[..., "List[SweepPoint]"]] = None

    def points(self, small: bool = False, seed: int = 0) -> "List[SweepPoint]":
        """The sweep points this experiment needs (may be empty)."""
        if self.points_fn is None:
            return []
        return self.points_fn(small=small, seed=seed)

    def render(self, small: bool = False, seed: int = 0) -> ExperimentResult:
        """Assemble the figure/table (cheap once the caches are warm)."""
        return self.render_fn(small=small, seed=seed)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (used for normalized ratios)."""
    values = [max(v, 1e-12) for v in values]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# --------------------------------------------------------------------- #
# Phase 1                                                               #
# --------------------------------------------------------------------- #

@dataclass
class PreciseReference:
    """Cached precise-execution baseline for one workload instance."""

    output: object
    instructions: int
    mpki: float
    fetches_per_ki: float


def failed_precise_reference(message: str) -> PreciseReference:
    """A baseline placeholder for a permanently failed sweep point.

    Backfilled into the in-memory cache only (never the disk cache) so
    drivers can still assemble their tables — every dependent cell
    renders as FAILED via NaN.
    """
    return PreciseReference(
        output={"failed": message},
        instructions=0,
        mpki=float("nan"),
        fetches_per_ki=float("nan"),
    )


_PRECISE_CACHE: Dict[Tuple[str, int, bool, tuple], PreciseReference] = {}


#: Per-process counts of simulations actually *executed* (cache misses all
#: the way down). The sweep engine aggregates these across workers to
#: verify its exactly-once guarantee for precise baselines.
@dataclass
class ComputeCounters:
    """How many results this process computed vs. served from a cache."""

    precise_computed: int = 0
    precise_memory_hits: int = 0
    precise_disk_hits: int = 0
    technique_computed: int = 0
    technique_memory_hits: int = 0
    technique_disk_hits: int = 0
    traces_captured: int = 0
    trace_memory_hits: int = 0
    trace_store_hits: int = 0
    fullsystem_computed: int = 0
    fullsystem_memory_hits: int = 0
    fullsystem_disk_hits: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "precise_computed": self.precise_computed,
            "precise_memory_hits": self.precise_memory_hits,
            "precise_disk_hits": self.precise_disk_hits,
            "technique_computed": self.technique_computed,
            "technique_memory_hits": self.technique_memory_hits,
            "technique_disk_hits": self.technique_disk_hits,
            "traces_captured": self.traces_captured,
            "trace_memory_hits": self.trace_memory_hits,
            "trace_store_hits": self.trace_store_hits,
            "fullsystem_computed": self.fullsystem_computed,
            "fullsystem_memory_hits": self.fullsystem_memory_hits,
            "fullsystem_disk_hits": self.fullsystem_disk_hits,
        }


COMPUTE_COUNTERS = ComputeCounters()


def _workload(name: str, small: bool, params: Optional[dict] = None):
    return get_workload(name, params=params, small=small)


def _precise_disk_key(
    name: str, seed: int, small: bool, params_items: tuple
) -> str:
    return diskcache.point_key(
        "precise", workload=name, seed=seed, small=small, params=params_items
    )


def technique_disk_key(
    name: str,
    mode: Mode,
    config: Optional[ApproximatorConfig],
    prefetch_degree: int,
    seed: int,
    small: bool,
    params_items: tuple,
    fault_spec: str = "",
    predictor_override: str = "",
) -> str:
    """The disk-cache key of one technique point.

    An active memory-fault spec is a distinct key component (omitted
    entirely when clean, keeping clean keys stable across releases) so
    corrupted-run results can never be served to clean runs. The
    ``REPRO_PREDICTOR`` override gets the same treatment: it retargets
    what a ``Mode.PREDICTOR`` point computes, so it must be a key
    component — omitted when inactive so historical keys stay stable.
    """
    components = dict(
        workload=name,
        mode=mode,
        config=config if config is not None else ApproximatorConfig(),
        prefetch_degree=prefetch_degree,
        seed=seed,
        small=small,
        params=params_items,
    )
    if fault_spec:
        components["faults"] = fault_spec
    if predictor_override:
        components["predictor_override"] = predictor_override
    return diskcache.point_key("technique", **components)


def run_precise_reference(
    name: str, seed: int = 0, small: bool = False, params: Optional[dict] = None
) -> PreciseReference:
    """Precise run through the phase-1 simulator.

    Three cache layers are consulted in order: the in-process dict, the
    on-disk :mod:`~repro.experiments.diskcache` layer (shared across
    worker processes and invocations), then the simulation itself. The
    simulations are deterministic, so every layer returns identical data.
    """
    params_items = tuple(sorted((params or {}).items()))
    key = (name, seed, small, params_items)
    cached = _PRECISE_CACHE.get(key)
    if cached is not None:
        COMPUTE_COUNTERS.precise_memory_hits += 1
        return cached
    disk = diskcache.active_cache()
    disk_key = None
    if disk is not None:
        disk_key = _precise_disk_key(name, seed, small, params_items)
        stored = disk.get(disk_key)
        if isinstance(stored, PreciseReference):
            COMPUTE_COUNTERS.precise_disk_hits += 1
            _PRECISE_CACHE[key] = stored
            return stored
    # Precise references always execute clean: injected memory faults are
    # suppressed so error under faults is measured against an
    # uncorrupted baseline.
    with faults.no_memory_faults():
        workload = _workload(name, small, params)
        sim = TraceSimulator(Mode.PRECISE)
        output = workload.execute(sim, seed)
        stats = sim.finish()
    reference = PreciseReference(
        output=output,
        instructions=stats.instructions,
        mpki=stats.raw_mpki,
        fetches_per_ki=stats.fetches_per_kilo_instruction,
    )
    COMPUTE_COUNTERS.precise_computed += 1
    _PRECISE_CACHE[key] = reference
    if disk is not None:
        disk.put(disk_key, reference)
    return reference


@dataclass
class TechniqueResult:
    """One phase-1 measurement of a technique against its precise baseline."""

    normalized_mpki: float
    normalized_fetches: float
    output_error: float
    coverage: float
    instruction_variation: float
    static_approx_pcs: int
    raw: dict


def failed_technique_result(message: str) -> TechniqueResult:
    """A placeholder for a technique point that exhausted its retries.

    NaN metric fields render as FAILED cells; the failure reason rides
    along in ``raw``. In-memory backfill only — never written to disk.
    """
    nan = float("nan")
    return TechniqueResult(
        normalized_mpki=nan,
        normalized_fetches=nan,
        output_error=nan,
        coverage=nan,
        instruction_variation=nan,
        static_approx_pcs=0,
        raw={"failed": True, "error": message},
    )


def is_failed(result: object) -> bool:
    """True for the failure placeholders produced by the sweep engine."""
    if isinstance(result, TechniqueResult):
        return bool(result.raw.get("failed"))
    if isinstance(result, PreciseReference):
        return isinstance(result.output, dict) and "failed" in result.output
    if isinstance(result, FullSystemResult):
        return result.failure is not None
    return False


_TECHNIQUE_CACHE: Dict[tuple, TechniqueResult] = {}


def run_technique(
    name: str,
    mode: Mode,
    config: Optional[ApproximatorConfig] = None,
    prefetch_degree: int = 4,
    seed: int = 0,
    small: bool = False,
    params: Optional[dict] = None,
) -> TechniqueResult:
    """Run one workload under one technique; normalize against precise.

    Results are cached on the full configuration: different figures sweep
    overlapping design points (e.g. Figures 4 and 5 share every LVA run),
    so the cache roughly halves the cost of regenerating the whole
    evaluation in one process. Simulations are deterministic, making the
    cache semantically invisible.
    """
    params_items = tuple(sorted((params or {}).items()))
    fault_spec = faults.active_memory_spec()
    predictor_override = predictor_registry.active_override(mode.value)
    key = (
        name, mode, config, prefetch_degree, seed, small, params_items,
        fault_spec, predictor_override,
    )
    cached = _TECHNIQUE_CACHE.get(key)
    if cached is not None:
        COMPUTE_COUNTERS.technique_memory_hits += 1
        return cached
    disk = diskcache.active_cache()
    disk_key = None
    if disk is not None:
        disk_key = technique_disk_key(
            name, mode, config, prefetch_degree, seed, small, params_items,
            fault_spec, predictor_override,
        )
        stored = disk.get(disk_key)
        if isinstance(stored, TechniqueResult):
            COMPUTE_COUNTERS.technique_disk_hits += 1
            _TECHNIQUE_CACHE[key] = stored
            return stored
    reference = run_precise_reference(name, seed, small, params)
    workload = _workload(name, small, params)
    sim = TraceSimulator(
        mode, approximator_config=config, prefetch_degree=prefetch_degree
    )
    output = workload.execute(sim, seed)
    stats = sim.finish()
    error = workload.output_error(reference.output, output)
    normalized_mpki = stats.mpki / reference.mpki if reference.mpki else 1.0
    normalized_fetches = (
        stats.fetches_per_kilo_instruction / reference.fetches_per_ki
        if reference.fetches_per_ki
        else 1.0
    )
    variation = (
        abs(stats.instructions - reference.instructions) / reference.instructions
        if reference.instructions
        else 0.0
    )
    outcome = TechniqueResult(
        normalized_mpki=normalized_mpki,
        normalized_fetches=normalized_fetches,
        output_error=error,
        coverage=stats.coverage,
        instruction_variation=variation,
        static_approx_pcs=len(stats.static_approx_pcs),
        raw=stats.as_dict(),
    )
    COMPUTE_COUNTERS.technique_computed += 1
    _TECHNIQUE_CACHE[key] = outcome
    if disk is not None:
        disk.put(disk_key, outcome)
    return outcome


# --------------------------------------------------------------------- #
# Phase 2                                                               #
# --------------------------------------------------------------------- #

#: Bound of the in-process packed-trace LRU (entry count). Phase-2
#: figures iterate one workload at a time, so a handful of entries covers
#: every access pattern we have.
TRACE_LRU_CAPACITY = 4


class _PackedTraceLRU:
    """A small, bounded in-process cache of packed traces.

    The persistent tier is the memory-mapped
    :mod:`~repro.experiments.tracestore`; this layer only avoids
    re-validating and re-opening the store entry on consecutive accesses
    to the same trace. Bounded (unlike its unbounded dict predecessor) so
    a multi-workload run no longer retains every trace forever.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[Tuple[str, int, bool], PackedTrace]" = (
            OrderedDict()
        )

    def get(self, key: Tuple[str, int, bool]) -> Optional[PackedTrace]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: Tuple[str, int, bool], trace: PackedTrace) -> None:
        self._entries[key] = trace
        self._entries.move_to_end(key)
        while len(self._entries) > TRACE_LRU_CAPACITY:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries


_TRACE_CACHE = _PackedTraceLRU()


def trace_disk_key(name: str, seed: int, small: bool) -> str:
    """The trace-store key of one (workload, seed, scale) capture."""
    return tracestore.trace_key(name, seed, small, PHASE2_PARAMS.get(name))


def capture_trace(name: str, seed: int = 0, small: bool = False) -> PackedTrace:
    """The packed 4-thread load trace of a precise phase-1 run (cached).

    Full-system workloads use the :data:`PHASE2_PARAMS` input scaling, the
    analogue of the paper switching from simlarge to simmedium. Three
    layers are consulted in order: a small in-process LRU, the
    memory-mapped cross-process :mod:`~repro.experiments.tracestore`
    (columns shared zero-copy between sweep workers), then the workload
    itself is executed and the capture published to the store.
    """
    key = (name, seed, small)
    cached = _TRACE_CACHE.get(key)
    if cached is not None:
        COMPUTE_COUNTERS.trace_memory_hits += 1
        return cached
    store = tracestore.active_store()
    store_key = None
    if store is not None:
        store_key = trace_disk_key(name, seed, small)
        stored = store.get(store_key)
        if stored is not None:
            COMPUTE_COUNTERS.trace_store_hits += 1
            _TRACE_CACHE.put(key, stored)
            return stored
    params = PHASE2_PARAMS.get(name)
    # Traces are precise replays: always captured clean (see
    # run_precise_reference). The timing below feeds telemetry gauges
    # only — it never touches the captured trace or any cache key.
    started = time.perf_counter()  # lva: ignore[LVA008]
    with faults.no_memory_faults():
        workload = _workload(name, small, params)
        recorder = TraceRecorder()
        sim = TraceSimulator(Mode.PRECISE, recorder=recorder)
        workload.execute(sim, seed)
        sim.finish()
    packed = recorder.trace.pack()
    elapsed = time.perf_counter() - started  # lva: ignore[LVA008]
    COMPUTE_COUNTERS.traces_captured += 1
    if telemetry.enabled():
        registry = telemetry.metrics()
        registry.counter("trace.capture.count").add(1)
        if elapsed > 0:
            registry.gauge("trace.capture.events_per_s").set(len(packed) / elapsed)
    _TRACE_CACHE.put(key, packed)
    if store is not None:
        store.put(store_key, packed)
    return packed


def run_fullsystem(
    trace: Union[Trace, PackedTrace],
    approximate: bool = False,
    approximator: Optional[ApproximatorConfig] = None,
) -> FullSystemResult:
    """Replay a trace through the Table II platform."""
    config = FullSystemConfig(approximate=approximate, approximator=approximator)
    # Telemetry-only wall timing; the replay result is time-independent.
    started = time.perf_counter()  # lva: ignore[LVA008]
    result = FullSystemSimulator(config).run(trace)
    if telemetry.enabled():
        elapsed = time.perf_counter() - started  # lva: ignore[LVA008]
        registry = telemetry.metrics()
        registry.counter("trace.replay.count").add(1)
        if elapsed > 0:
            registry.gauge("trace.replay.events_per_s").set(len(trace) / elapsed)
    return result


def failed_fullsystem_result(message: str) -> FullSystemResult:
    """A placeholder for a full-system point that exhausted its retries.

    NaN timing/energy fields render as FAILED cells through the figure
    drivers' ratio properties. In-memory backfill only — never written
    to disk.
    """
    nan = float("nan")
    return FullSystemResult(
        cycles=nan,
        instructions=0,
        loads=0,
        raw_misses=0,
        covered_misses=0,
        fetches=0,
        l2_accesses=0,
        memory_accesses=0,
        noc_flit_hops=0,
        approximator_accesses=0,
        total_miss_latency=nan,
        energy=EnergyBreakdown(),
        core_cycles=[],
        failure=message,
    )


_FULLSYSTEM_CACHE: Dict[tuple, FullSystemResult] = {}


def fullsystem_disk_key(
    name: str,
    approximate: bool,
    config: Optional[ApproximatorConfig],
    seed: int,
    small: bool,
) -> str:
    """The disk-cache key of one full-system replay point.

    The trace schema version participates so replay results computed
    from an older trace format can never outlive it.
    """
    return diskcache.point_key(
        "fullsystem",
        workload=name,
        approximate=approximate,
        config=config if config is not None else ApproximatorConfig(),
        seed=seed,
        small=small,
        trace_schema=tracestore.TRACE_SCHEMA_VERSION,
    )


def run_fullsystem_point(
    name: str,
    approximate: bool = False,
    approximator: Optional[ApproximatorConfig] = None,
    seed: int = 0,
    small: bool = False,
) -> FullSystemResult:
    """One cached full-system replay (capture_trace + run_fullsystem).

    The phase-2 analogue of :func:`run_technique`: in-process dict, then
    the shared disk cache, then the replay itself (whose trace comes from
    :func:`capture_trace`'s own three layers). Deterministic, so every
    layer returns identical data.
    """
    key = (name, approximate, approximator, seed, small)
    cached = _FULLSYSTEM_CACHE.get(key)
    if cached is not None:
        COMPUTE_COUNTERS.fullsystem_memory_hits += 1
        return cached
    disk = diskcache.active_cache()
    disk_key = None
    if disk is not None:
        disk_key = fullsystem_disk_key(name, approximate, approximator, seed, small)
        stored = disk.get(disk_key)
        if isinstance(stored, FullSystemResult):
            COMPUTE_COUNTERS.fullsystem_disk_hits += 1
            _FULLSYSTEM_CACHE[key] = stored
            return stored
    trace = capture_trace(name, seed=seed, small=small)
    result = run_fullsystem(trace, approximate=approximate, approximator=approximator)
    COMPUTE_COUNTERS.fullsystem_computed += 1
    _FULLSYSTEM_CACHE[key] = result
    if disk is not None:
        disk.put(disk_key, result)
    return result


def reset_caches() -> None:
    """Drop cached references, technique results and traces — every layer.

    Also clears the persistent disk cache and trace store (when enabled)
    and the compute counters, so a reset really does force fresh
    simulations.
    """
    _PRECISE_CACHE.clear()
    _TECHNIQUE_CACHE.clear()
    _TRACE_CACHE.clear()
    _FULLSYSTEM_CACHE.clear()
    disk = diskcache.active_cache()
    if disk is not None:
        disk.clear()
    store = tracestore.active_store()
    if store is not None:
        store.clear()
    global COMPUTE_COUNTERS
    COMPUTE_COUNTERS = ComputeCounters()
