"""Shared infrastructure for the experiment drivers.

The paper's two-phase methodology is mirrored exactly:

* **Phase 1** (design space, Sections VI-A..D): run the workload against a
  :class:`TraceSimulator` in PRECISE mode and in the technique mode under
  study; report MPKI normalized to precise, fetches normalized to precise,
  and application output error versus the precise output.
* **Phase 2** (full system, Section VI-E): capture a 4-thread trace from
  the precise run and replay it through :class:`FullSystemSimulator` with
  and without approximation.

Every run is a :class:`SweepPoint` of one of three kinds — a precise
baseline, a technique run scored against it, or a full-system replay —
and :func:`point_cache_key` is its one identity. The run functions and
the sweep engine share it: one result memo (``_RESULTS``), one memo →
disk → compute path (:func:`_cached`), so a result the engine backfills
is the one a driver's ``render()`` finds.
"""

from __future__ import annotations

import math
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro import faults, telemetry
from repro.core.config import ApproximatorConfig
from repro.predictors import registry as predictor_registry
from repro.energy.model import EnergyBreakdown
from repro.experiments import diskcache, tracestore
from repro.fullsystem.result import FullSystemResult
from repro.sim.mode import Mode

if TYPE_CHECKING:
    from repro.sim.trace import PackedTrace, Trace

#: Canonical workload order used by every figure: the order of
#: :func:`repro.workloads.registry.workload_names`, written out so that
#: naming the workloads does not import them.
BASELINE_WORKLOADS: Tuple[str, ...] = (
    "blackscholes",
    "bodytrack",
    "canneal",
    "ferret",
    "fluidanimate",
    "swaptions",
    "x264",
)

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


@dataclass(frozen=True)
class Driver:
    """The one experiment-driver contract.

    Every figure/table module exposes one ``DRIVER`` (the ablations
    module a ``DRIVERS`` mapping); the runner, the sweep engine and
    programmatic callers all go through it:

    * :meth:`render` — assemble the figure/table from the result memo
      the sweep engine warmed, computing any point it lacks;
    * :meth:`points` — the sweep points the render needs, declared by
      running it once with every run function answering a placeholder.

    So the render is the one place a swept driver states its grid. For
    the declaring pass to see that grid, a swept render reads results
    only through :func:`run_precise_reference`, :func:`run_technique`
    and :func:`run_fullsystem_point`, and which calls it makes never
    depends on a result's value. It must also accept the FAILED
    placeholders (:data:`FAILED_RESULTS`), which it gets back during the
    pass and for a point that exhausted its retries. ``swept=False``
    marks an experiment that calls no run function (Table II, the NoC
    calibration): it declares no points and runs whole.
    """

    name: str
    render_fn: Callable[..., ExperimentResult]
    swept: bool = True

    def points(self, small: bool = False, seed: int = 0) -> "List[SweepPoint]":
        """The sweep points this experiment needs (may be empty).

        A precise point that is the baseline of a technique point the
        render also asked for is left out: the engine schedules every
        technique point's baseline anyway.
        """
        if not self.swept:
            return []
        global _DECLARED
        declared: List[SweepPoint] = []
        _DECLARED = declared
        try:
            # Through ``self.render``, so a wrapper installed on it (a
            # profiler's layer timer) counts the pass as rendering.
            self.render(small=small, seed=seed)
        finally:
            _DECLARED = None
        implied = {point.baseline() for point in declared if point.kind == "technique"}
        return [p for p in declared if p.kind != "precise" or p not in implied]

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
# Sweep points                                                          #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class SweepPoint:
    """One unit of sweep work: a single simulator run, fully specified.

    ``mode=None`` marks a precise-baseline-only point (e.g. Table I's
    precise column, Figure 1's reference run); any technique point
    implies its own precise baseline automatically. ``faults`` is an
    optional memory-fault spec (see :mod:`repro.faults`) applied to the
    technique run — baselines always execute clean.

    ``fullsystem=True`` marks a phase-2 replay point
    (:func:`run_fullsystem_point`): the captured trace replays through
    the Table II platform, precisely (``approximate=False``) or with
    per-core LVA (``approximate=True``, degree from ``config``).
    Full-system points depend on their *trace capture* instead of a
    precise phase-1 baseline.
    """

    workload: str
    mode: Optional[Mode] = None
    config: Optional[ApproximatorConfig] = None
    prefetch_degree: int = 4
    seed: int = 0
    small: bool = False
    #: Workload parameter overrides as a sorted items tuple (hashable).
    params: Tuple[Tuple[str, object], ...] = ()
    #: Memory-fault spec for this point ("" = clean).
    faults: str = ""
    #: Phase-2 replay point (see class docstring).
    fullsystem: bool = False
    #: Replay with approximation enabled (full-system points only).
    approximate: bool = False

    @property
    def kind(self) -> str:
        """``"precise"``, ``"technique"`` or ``"fullsystem"``."""
        if self.fullsystem:
            return "fullsystem"
        return "precise" if self.mode is None else "technique"

    def params_dict(self) -> Optional[dict]:
        return dict(self.params) if self.params else None

    def baseline(self) -> "SweepPoint":
        """The precise-baseline point this point depends on (always clean)."""
        return SweepPoint(
            workload=self.workload,
            seed=self.seed,
            small=self.small,
            params=self.params,
        )

    def describe(self) -> str:
        if self.fullsystem:
            mode = "fullsystem-lva" if self.approximate else "fullsystem-baseline"
        else:
            mode = self.mode.value if self.mode is not None else "precise"
        text = f"{self.workload}/{mode}/seed={self.seed}"
        if self.faults:
            text += f"/faults={self.faults}"
        return text


def technique_point(
    workload: str,
    mode: Mode,
    config: Optional[ApproximatorConfig] = None,
    prefetch_degree: int = 4,
    seed: int = 0,
    small: bool = False,
    params: Optional[dict] = None,
    faults: str = "",
) -> SweepPoint:
    """A point mirroring one :func:`run_technique` call.

    No config means the default one, which the point stores, so the two
    spellings are one point (their disk keys were already equal).
    """
    return SweepPoint(
        workload=workload,
        mode=mode,
        config=config if config is not None else ApproximatorConfig(),
        prefetch_degree=prefetch_degree,
        seed=seed,
        small=small,
        params=tuple(sorted((params or {}).items())),
        faults=faults,
    )


def precise_point(
    workload: str, seed: int = 0, small: bool = False, params: Optional[dict] = None
) -> SweepPoint:
    """A point mirroring one :func:`run_precise_reference` call."""
    return SweepPoint(
        workload=workload,
        seed=seed,
        small=small,
        params=tuple(sorted((params or {}).items())),
    )


def fullsystem_point(
    workload: str,
    config: Optional[ApproximatorConfig] = None,
    approximate: Optional[bool] = None,
    seed: int = 0,
    small: bool = False,
) -> SweepPoint:
    """A point mirroring one :func:`run_fullsystem_point` call.

    ``approximate`` defaults to whether a config was given (a configured
    replay is an LVA replay; a bare one is the precise baseline).
    """
    return SweepPoint(
        workload=workload,
        config=config,
        seed=seed,
        small=small,
        fullsystem=True,
        approximate=config is not None if approximate is None else approximate,
    )


# --------------------------------------------------------------------- #
# Results                                                               #
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

    Every dependent cell renders as FAILED via NaN.
    """
    return PreciseReference(
        output={"failed": message},
        instructions=0,
        mpki=float("nan"),
        fetches_per_ki=float("nan"),
    )


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
    along in ``raw``.
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


def failed_fullsystem_result(message: str) -> FullSystemResult:
    """A placeholder for a full-system point that exhausted its retries.

    NaN timing/energy fields render as FAILED cells through the figure
    drivers' ratio properties. Every energy component is NaN: an
    all-zero breakdown would read as a replay that spent no energy.
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
        energy=EnergyBreakdown(nan, nan, nan, nan, nan),
        core_cycles=[],
        failure=message,
    )


#: The result type of each point kind. A disk-cache entry of another
#: type is a miss.
RESULT_TYPES: Dict[str, type] = {
    "precise": PreciseReference,
    "technique": TechniqueResult,
    "fullsystem": FullSystemResult,
}

#: The placeholder of each point kind for a point that exhausted its
#: retries. The sweep engine memoizes it in this process only, never on
#: disk, so drivers can still assemble their tables.
FAILED_RESULTS: Dict[str, Callable[[str], object]] = {
    "precise": failed_precise_reference,
    "technique": failed_technique_result,
    "fullsystem": failed_fullsystem_result,
}


# --------------------------------------------------------------------- #
# Point identity                                                        #
# --------------------------------------------------------------------- #

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


def _point_fault_spec(point: SweepPoint) -> str:
    """The canonical memory-fault spec this point's run will see."""
    if not point.faults:
        return faults.active_memory_spec()
    with faults.memory_faults(point.faults):
        return faults.active_memory_spec()


def point_disk_key(point: SweepPoint) -> str:
    """The disk-cache key of one sweep point."""
    if point.fullsystem:
        return fullsystem_disk_key(
            point.workload,
            point.approximate,
            point.config,
            point.seed,
            point.small,
        )
    if point.mode is not None:
        return technique_disk_key(
            point.workload,
            point.mode,
            point.config,
            point.prefetch_degree,
            point.seed,
            point.small,
            point.params,
            _point_fault_spec(point),
            predictor_registry.active_override(point.mode.value),
        )
    return _precise_disk_key(point.workload, point.seed, point.small, point.params)


def point_cache_key(point: SweepPoint) -> tuple:
    """The in-process identity of a point: its key in the result memo.

    A precise or full-system point is its own key. A technique run also
    sees the active memory-fault spec and the ``REPRO_PREDICTOR``
    override, so its key holds the point with ``faults`` set to the
    canonical active spec, and the override: the two values
    :func:`technique_disk_key` folds in. The point is copied only when
    its spec is not already canonical, which keeps a memo hit cheap.
    """
    if point.mode is None or point.fullsystem:
        return (point,)
    spec = _point_fault_spec(point)
    if spec != point.faults:
        point = replace(point, faults=spec)
    return (point, predictor_registry.active_override(point.mode.value))


# --------------------------------------------------------------------- #
# The result memo                                                       #
# --------------------------------------------------------------------- #

#: Every point result this process computed, read from disk or had
#: backfilled by the sweep engine, keyed by :func:`point_cache_key`.
_RESULTS: Dict[tuple, object] = {}

#: Per-process counts of results computed (cache misses all the way
#: down) and served from each cache: ``<kind>_computed``,
#: ``<kind>_memory_hits`` and ``<kind>_disk_hits`` for each point kind,
#: plus ``traces_captured``, ``trace_memory_hits`` and
#: ``trace_store_hits``. The sweep engine sums per-task deltas across
#: workers to check its exactly-once guarantee for precise baselines.
COMPUTE_COUNTERS: Counter = Counter()


#: The points :meth:`Driver.points` has recorded so far, while it runs a
#: render; None otherwise.
_DECLARED: Optional[List[SweepPoint]] = None


def _cached(point: SweepPoint):
    """One point's result: from the memo, the disk cache, or computed.

    A computed result is memoized and written to the disk cache. The
    simulations are deterministic, so every layer returns identical
    data. Each kind's compute function is called directly: LVA008 walks
    direct calls, and a callback would hide the replay from it.

    While :meth:`Driver.points` declares a render's points, this only
    records the point (with the active fault spec folded in, as its
    memo key holds it) and returns the FAILED placeholder: no cache is
    read or written and nothing is computed or counted.
    """
    kind = point.kind
    if _DECLARED is not None:
        _DECLARED.append(point_cache_key(point)[0])
        return FAILED_RESULTS[kind]("declared")
    key = point_cache_key(point)
    cached = _RESULTS.get(key)
    if cached is not None:
        COMPUTE_COUNTERS[kind + "_memory_hits"] += 1
        return cached
    disk = diskcache.active_cache()
    disk_key = None
    if disk is not None:
        disk_key = point_disk_key(point)
        stored = disk.get(disk_key)
        if isinstance(stored, RESULT_TYPES[kind]):
            COMPUTE_COUNTERS[kind + "_disk_hits"] += 1
            _RESULTS[key] = stored
            return stored
    if kind == "precise":
        result = _compute_precise(point)
    elif kind == "technique":
        result = _compute_technique(point)
    else:
        result = _compute_fullsystem(point)
    COMPUTE_COUNTERS[kind + "_computed"] += 1
    _RESULTS[key] = result
    if disk is not None:
        disk.put(disk_key, result)
    return result


# --------------------------------------------------------------------- #
# Phase 1                                                               #
# --------------------------------------------------------------------- #

def _workload(name: str, small: bool, params: Optional[dict] = None):
    from repro.workloads.registry import get_workload

    return get_workload(name, params=params, small=small)


def run_precise_reference(
    name: str, seed: int = 0, small: bool = False, params: Optional[dict] = None
) -> PreciseReference:
    """Precise run through the phase-1 simulator.

    Three cache layers are consulted in order: the in-process memo, the
    on-disk :mod:`~repro.experiments.diskcache` layer (shared across
    worker processes and invocations), then the simulation itself. The
    simulations are deterministic, so every layer returns identical data.
    """
    return _cached(precise_point(name, seed, small, params))


def _compute_precise(point: SweepPoint) -> PreciseReference:
    from repro.sim.tracesim import TraceSimulator

    # Precise references always execute clean: injected memory faults are
    # suppressed so error under faults is measured against an
    # uncorrupted baseline.
    with faults.no_memory_faults():
        workload = _workload(point.workload, point.small, point.params_dict())
        sim = TraceSimulator(Mode.PRECISE)
        output = workload.execute(sim, point.seed)
        stats = sim.finish()
    return PreciseReference(
        output=output,
        instructions=stats.instructions,
        mpki=stats.raw_mpki,
        fetches_per_ki=stats.fetches_per_kilo_instruction,
    )


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
    return _cached(
        technique_point(name, mode, config, prefetch_degree, seed, small, params)
    )


def _compute_technique(point: SweepPoint) -> TechniqueResult:
    from repro.sim.tracesim import TraceSimulator

    params = point.params_dict()
    reference = run_precise_reference(point.workload, point.seed, point.small, params)
    workload = _workload(point.workload, point.small, params)
    sim = TraceSimulator(
        point.mode,
        approximator_config=point.config,
        prefetch_degree=point.prefetch_degree,
    )
    output = workload.execute(sim, point.seed)
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
    return TechniqueResult(
        normalized_mpki=normalized_mpki,
        normalized_fetches=normalized_fetches,
        output_error=error,
        coverage=stats.coverage,
        instruction_variation=variation,
        static_approx_pcs=len(stats.static_approx_pcs),
        raw=stats.as_dict(),
    )


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
        COMPUTE_COUNTERS["trace_memory_hits"] += 1
        return cached
    store = tracestore.active_store()
    store_key = None
    if store is not None:
        store_key = trace_disk_key(name, seed, small)
        stored = store.get(store_key)
        if stored is not None:
            COMPUTE_COUNTERS["trace_store_hits"] += 1
            _TRACE_CACHE.put(key, stored)
            return stored
    from repro.sim.trace import TraceRecorder
    from repro.sim.tracesim import TraceSimulator

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
    COMPUTE_COUNTERS["traces_captured"] += 1
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
    from repro.fullsystem.config import FullSystemConfig
    from repro.fullsystem.system import FullSystemSimulator

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


def run_fullsystem_point(
    name: str,
    approximate: bool = False,
    approximator: Optional[ApproximatorConfig] = None,
    seed: int = 0,
    small: bool = False,
) -> FullSystemResult:
    """One cached full-system replay (capture_trace + run_fullsystem).

    The phase-2 analogue of :func:`run_technique`: in-process memo, then
    the shared disk cache, then the replay itself (whose trace comes from
    :func:`capture_trace`'s own three layers). Deterministic, so every
    layer returns identical data.
    """
    return _cached(fullsystem_point(name, approximator, approximate, seed, small))


def _compute_fullsystem(point: SweepPoint) -> FullSystemResult:
    trace = capture_trace(point.workload, seed=point.seed, small=point.small)
    return run_fullsystem(
        trace, approximate=point.approximate, approximator=point.config
    )


def reset_caches() -> None:
    """Drop cached references, technique results and traces — every layer.

    Also clears the persistent disk cache and trace store (when enabled)
    and the compute counters, so a reset really does force fresh
    simulations.
    """
    _RESULTS.clear()
    _TRACE_CACHE.clear()
    disk = diskcache.active_cache()
    if disk is not None:
        disk.clear()
    store = tracestore.active_store()
    if store is not None:
        store.clear()
    COMPUTE_COUNTERS.clear()
