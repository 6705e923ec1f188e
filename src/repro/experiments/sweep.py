"""Point-level parallel sweep engine with fault-tolerant supervision.

The figure/ablation drivers are sweeps over *points* — (workload, mode,
config, seed, scale, params) tuples fed to
:func:`~repro.experiments.common.run_technique`. Running whole experiments
in parallel worker processes wastes most of that structure: Figures 4 and
5 share every LVA run, every point needs the same per-workload precise
baseline, and separate processes share no cache.

This engine flips the unit of parallelism from experiments to points:

1. Drivers declare their points (``DRIVER.points(small, seed)``
   alongside ``DRIVER.render``).
2. The engine **dedupes** points across every requested experiment.
3. The unique *precise baselines* implied by the points run first, fanned
   out over a :class:`~concurrent.futures.ProcessPoolExecutor` — each is
   computed **exactly once** across all workers (the wave barrier, not
   locking, provides the guarantee).
4. The technique points fan out next; workers read the now-warm baselines
   from the shared disk cache (:mod:`~repro.experiments.diskcache`).
5. Results are backfilled into the parent's in-process caches, so the
   drivers afterwards assemble their tables for free.

Because the simulations are deterministic, a table built from engine
results is bit-identical to one built by running the driver alone.

**Supervision.** Execution survives partial failure: every point attempt
is bounded by an optional per-point timeout, failed attempts are retried
with exponential backoff and jitter (``retries``), a dead worker
(``BrokenProcessPool``) rebuilds the pool and requeues the in-flight
points, and after ``max_pool_rebuilds`` rebuilds the engine degrades to
serial in-process execution — where even a deterministic crasher is
reduced to a caught exception. A point that exhausts its retries yields
a structured :class:`PointFailure` (and a FAILED table cell via the
in-memory failure placeholders of :mod:`~repro.experiments.common`)
instead of killing the run.

**Checkpoint/resume.** A run journal
(:class:`~repro.experiments.journal.RunJournal`, JSONL beside the disk
cache) records each point's completion or permanent failure as it
happens. An interrupted run — SIGINT/SIGTERM shut the pool down cleanly
and flush the journal — resumes with ``resume=True`` (CLI ``--resume``):
completed points are restored from the disk cache, and only the missing
or previously failed ones are recomputed, converging to a table
bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import signal
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
)
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import faults, telemetry
from repro.core.config import ApproximatorConfig
from repro.predictors import registry as predictor_registry
from repro.errors import PointTimeoutError
from repro.experiments import common, diskcache, tracestore
from repro.experiments.journal import NullJournal, RunJournal
from repro.fullsystem import FullSystemResult
from repro.sim.tracesim import Mode


@dataclass(frozen=True)
class SweepPoint:
    """One unit of sweep work: a single simulator run, fully specified.

    ``mode=None`` marks a precise-baseline-only point (e.g. Table I's
    precise column, Figure 1's reference run); any technique point
    implies its own precise baseline automatically. ``faults`` is an
    optional memory-fault spec (see :mod:`repro.faults`) applied to the
    technique run — baselines always execute clean.

    ``fullsystem=True`` marks a phase-2 replay point
    (:func:`common.run_fullsystem_point`): the captured trace replays
    through the Table II platform, precisely (``approximate=False``) or
    with per-core LVA (``approximate=True``, degree from ``config``).
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
    def is_technique(self) -> bool:
        return self.mode is not None and not self.fullsystem

    @property
    def is_fullsystem(self) -> bool:
        return self.fullsystem

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
    """A point mirroring one :func:`common.run_technique` call."""
    return SweepPoint(
        workload=workload,
        mode=mode,
        config=config,
        prefetch_degree=prefetch_degree,
        seed=seed,
        small=small,
        params=tuple(sorted((params or {}).items())),
        faults=faults,
    )


def precise_point(
    workload: str, seed: int = 0, small: bool = False, params: Optional[dict] = None
) -> SweepPoint:
    """A point mirroring one :func:`common.run_precise_reference` call."""
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
    """A point mirroring one :func:`common.run_fullsystem_point` call.

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
# Point identity                                                        #
# --------------------------------------------------------------------- #


def _point_fault_spec(point: SweepPoint) -> str:
    """The canonical memory-fault spec this point's run will see."""
    with faults.memory_faults(point.faults):
        return faults.active_memory_spec()


def point_disk_key(point: SweepPoint) -> str:
    """The disk-cache (and journal) key of one sweep point."""
    if point.fullsystem:
        return common.fullsystem_disk_key(
            point.workload,
            point.approximate,
            point.config,
            point.seed,
            point.small,
        )
    if point.is_technique:
        return common.technique_disk_key(
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
    return common._precise_disk_key(
        point.workload, point.seed, point.small, point.params
    )


def capture_key(point: SweepPoint) -> str:
    """The trace-store key of the capture a full-system point depends on."""
    return common.trace_disk_key(point.workload, point.seed, point.small)


# --------------------------------------------------------------------- #
# Worker entry points (module-level for pickling)                       #
# --------------------------------------------------------------------- #


def _counter_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {name: after[name] - before[name] for name in after}


def _run_precise_worker(point: SweepPoint, attempt: int = 0):
    """Compute one precise baseline; returns (point, reference, counters).

    Counters are per-task deltas — pool workers are reused across tasks,
    so cumulative values would double-count when aggregated.
    """
    faults.before_point(
        "precise", point.workload, None, point.seed, point.small, attempt=attempt
    )
    before = common.COMPUTE_COUNTERS.as_dict()
    tracer = telemetry.tracer()
    if tracer is None:
        reference = common.run_precise_reference(
            point.workload, point.seed, point.small, point.params_dict()
        )
    else:
        tracer.emit(
            "sweep.point.running",
            point=point.describe(),
            kind="precise",
            attempt=attempt,
        )
        with tracer.span("sweep.point", point=point.describe(), kind="precise"):
            reference = common.run_precise_reference(
                point.workload, point.seed, point.small, point.params_dict()
            )
    return point, reference, _counter_delta(before, common.COMPUTE_COUNTERS.as_dict())


def _run_technique_worker(point: SweepPoint, attempt: int = 0):
    """Compute one technique point; returns (point, result, counters)."""
    faults.before_point(
        "technique",
        point.workload,
        point.mode.value if point.mode is not None else None,
        point.seed,
        point.small,
        config=point.config,
        attempt=attempt,
    )
    before = common.COMPUTE_COUNTERS.as_dict()
    tracer = telemetry.tracer()
    if tracer is not None:
        tracer.emit(
            "sweep.point.running",
            point=point.describe(),
            kind="technique",
            attempt=attempt,
        )
    with faults.memory_faults(point.faults):
        if tracer is None:
            result = common.run_technique(
                point.workload,
                point.mode,
                config=point.config,
                prefetch_degree=point.prefetch_degree,
                seed=point.seed,
                small=point.small,
                params=point.params_dict(),
            )
        else:
            with tracer.span(
                "sweep.point", point=point.describe(), kind="technique"
            ):
                result = common.run_technique(
                    point.workload,
                    point.mode,
                    config=point.config,
                    prefetch_degree=point.prefetch_degree,
                    seed=point.seed,
                    small=point.small,
                    params=point.params_dict(),
                )
    return point, result, _counter_delta(before, common.COMPUTE_COUNTERS.as_dict())


def _run_capture_worker(point: SweepPoint, attempt: int = 0):
    """Capture (or store-hit) one trace; returns (point, events, counters).

    The pre-capture wave of a full-system sweep: after this task the
    trace store holds the packed columns, so every replay worker
    memory-maps them instead of re-running the workload.
    """
    faults.before_point(
        "capture", point.workload, None, point.seed, point.small, attempt=attempt
    )
    before = common.COMPUTE_COUNTERS.as_dict()
    tracer = telemetry.tracer()
    if tracer is None:
        trace = common.capture_trace(point.workload, point.seed, point.small)
    else:
        tracer.emit(
            "sweep.point.running",
            point=point.describe(),
            kind="capture",
            attempt=attempt,
        )
        with tracer.span("sweep.point", point=point.describe(), kind="capture"):
            trace = common.capture_trace(point.workload, point.seed, point.small)
    return point, len(trace), _counter_delta(before, common.COMPUTE_COUNTERS.as_dict())


def _run_fullsystem_worker(point: SweepPoint, attempt: int = 0):
    """Compute one full-system replay; returns (point, result, counters)."""
    faults.before_point(
        "fullsystem",
        point.workload,
        "lva" if point.approximate else "baseline",
        point.seed,
        point.small,
        config=point.config,
        attempt=attempt,
    )
    before = common.COMPUTE_COUNTERS.as_dict()
    tracer = telemetry.tracer()
    if tracer is None:
        result = common.run_fullsystem_point(
            point.workload,
            approximate=point.approximate,
            approximator=point.config,
            seed=point.seed,
            small=point.small,
        )
    else:
        tracer.emit(
            "sweep.point.running",
            point=point.describe(),
            kind="fullsystem",
            attempt=attempt,
        )
        with tracer.span("sweep.point", point=point.describe(), kind="fullsystem"):
            result = common.run_fullsystem_point(
                point.workload,
                approximate=point.approximate,
                approximator=point.config,
                seed=point.seed,
                small=point.small,
            )
    return point, result, _counter_delta(before, common.COMPUTE_COUNTERS.as_dict())


# Baseline-only identity: precise runs are independent of the technique
# fields (mode/config/prefetch_degree) and always execute clean (faults).
def _precise_cache_key(point: SweepPoint) -> tuple:  # lva: ignore[LVA002]
    return (point.workload, point.seed, point.small, point.params)


def _technique_cache_key(point: SweepPoint) -> tuple:  # lva: ignore[LVA002]
    return (
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


# Replay identity: the in-process key of common.run_fullsystem_point
# (captures are precise and clean, so no mode/prefetch/fault components).
def _fullsystem_cache_key(point: SweepPoint) -> tuple:  # lva: ignore[LVA002]
    return (
        point.workload,
        point.approximate,
        point.config,
        point.seed,
        point.small,
    )


def _backfill_precise(point: SweepPoint, reference) -> None:
    common._PRECISE_CACHE[_precise_cache_key(point)] = reference


def _backfill_technique(point: SweepPoint, result) -> None:
    common._TECHNIQUE_CACHE[_technique_cache_key(point)] = result


def _backfill_fullsystem(point: SweepPoint, result) -> None:
    common._FULLSYSTEM_CACHE[_fullsystem_cache_key(point)] = result


# --------------------------------------------------------------------- #
# Supervision records                                                   #
# --------------------------------------------------------------------- #


@dataclass
class PointFailure:
    """One sweep point that exhausted its retries — the run survived it."""

    point: SweepPoint
    kind: str  # "precise" | "technique" | "capture" | "fullsystem"
    error_type: str
    message: str
    attempts: int

    def describe(self) -> str:
        return (
            f"{self.point.describe()} [{self.kind}]: {self.error_type}: "
            f"{self.message} (after {self.attempts} attempt(s))"
        )


@dataclass
class _Task:
    """Mutable supervision state for one point."""

    point: SweepPoint
    kind: str
    key: str
    attempts: int = 0
    #: ``time.monotonic()`` at the start of the current attempt (0 = unset).
    started: float = 0.0

    @property
    def worker(self):
        return _WORKERS[self.kind]


_WORKERS = {
    "precise": _run_precise_worker,
    "technique": _run_technique_worker,
    "capture": _run_capture_worker,
    "fullsystem": _run_fullsystem_worker,
}


def _sigterm_to_interrupt(signum, frame):
    raise KeyboardInterrupt("SIGTERM")


def _pool_worker_init() -> None:
    """Reset SIGTERM in pool workers.

    Forked workers inherit the parent's SIGTERM→KeyboardInterrupt
    handler; a pool-rebuild ``terminate()`` would then raise inside the
    worker and spray tracebacks instead of just dying.
    """
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):
        pass


# --------------------------------------------------------------------- #
# The engine                                                            #
# --------------------------------------------------------------------- #


@dataclass
class SweepReport:
    """What one engine run did — the evidence for its guarantees."""

    requested_points: int = 0
    unique_points: int = 0
    unique_baselines: int = 0
    #: Simulations actually executed, aggregated across all workers (and
    #: the parent, in serial mode). ``precise_computed`` equal to
    #: ``unique_baselines`` on a cold cache is the exactly-once property.
    precise_computed: int = 0
    technique_computed: int = 0
    #: Full-system replays actually executed (vs served from a cache).
    fullsystem_computed: int = 0
    #: Workload executions performed to capture a phase-2 trace. Zero on
    #: a warm trace store — the acceptance signal that sweep workers
    #: shared bytes instead of re-running workloads.
    traces_captured: int = 0
    #: Traces served from the memory-mapped trace store.
    trace_store_hits: int = 0
    disk_hits: int = 0
    elapsed: float = 0.0
    #: Points restored from the journal + disk cache by ``resume``.
    resumed_points: int = 0
    #: Attempts rescheduled after a failure (each backs off with jitter).
    retried_attempts: int = 0
    #: Times the worker pool was torn down and rebuilt.
    pool_rebuilds: int = 0
    #: Attempts abandoned for exceeding the per-point timeout.
    timeouts: int = 0
    #: Points that exhausted their retries (rendered as FAILED cells).
    failures: List[PointFailure] = field(default_factory=list)

    def summary(self) -> str:
        text = (
            f"sweep: {self.unique_points} unique points "
            f"({self.requested_points} requested), "
            f"{self.unique_baselines} baselines "
            f"({self.precise_computed} computed), "
            f"{self.technique_computed} technique runs, "
            f"{self.disk_hits} disk hits, {self.elapsed:.1f}s"
        )
        if self.fullsystem_computed or self.traces_captured or self.trace_store_hits:
            text += (
                f", {self.fullsystem_computed} replays, "
                f"{self.traces_captured} traces captured "
                f"({self.trace_store_hits} store hits)"
            )
        extras = []
        if self.resumed_points:
            extras.append(f"{self.resumed_points} resumed")
        if self.retried_attempts:
            extras.append(f"{self.retried_attempts} retried")
        if self.timeouts:
            extras.append(f"{self.timeouts} timeouts")
        if self.pool_rebuilds:
            extras.append(f"{self.pool_rebuilds} pool rebuilds")
        if self.failures:
            extras.append(f"{len(self.failures)} FAILED")
        if extras:
            text += " [" + ", ".join(extras) + "]"
        return text


class SweepEngine:
    """Dedupes and executes sweep points, backfilling the caches.

    One engine instance is built per CLI invocation; :meth:`execute`
    leaves ``common._PRECISE_CACHE`` / ``common._TECHNIQUE_CACHE`` warm in
    the calling process, so ``DRIVER.render()`` calls afterwards cost
    only table assembly. ``retries``/``point_timeout``/``resume``
    configure the supervision layer (see the module docstring).
    """

    def __init__(
        self,
        jobs: int = 1,
        retries: int = 0,
        point_timeout: Optional[float] = None,
        resume: bool = False,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        max_pool_rebuilds: int = 3,
        jitter_seed: int = 0,
    ) -> None:
        self.jobs = max(1, jobs)
        self.retries = max(0, retries)
        self.point_timeout = point_timeout if point_timeout and point_timeout > 0 else None
        self.resume = resume
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_pool_rebuilds = max(0, max_pool_rebuilds)
        self.report = SweepReport()
        self.jitter_seed = jitter_seed
        self._seq = itertools.count()
        self._serial_fallback = False
        self._failed_baseline_keys: set = set()
        self._old_sigterm = None

    # -- public entry ---------------------------------------------------- #

    def execute(self, points: Iterable[SweepPoint]) -> SweepReport:
        """Run every unique point (and implied dependency) exactly once.

        Wave 1 runs the unique precise baselines implied by the phase-1
        points **and** the unique trace captures implied by the
        full-system points (each capture publishes its packed columns to
        the shared trace store). Wave 2 fans out the technique and
        replay points; their workers read the warm baselines from the
        disk cache and memory-map the warm traces zero-copy.
        """
        started = time.time()
        requested = list(points)
        unique: List[SweepPoint] = list(dict.fromkeys(requested))
        baselines: List[SweepPoint] = list(
            dict.fromkeys(point.baseline() for point in unique if not point.fullsystem)
        )
        technique_points = [p for p in unique if p.is_technique]
        fullsystem_points = [p for p in unique if p.is_fullsystem]
        # Pre-capture only pays off when workers can share the result:
        # without the trace store each process keeps its own LRU anyway.
        captures: List[SweepPoint] = []
        if fullsystem_points and tracestore.active_store() is not None:
            seen: Dict[str, SweepPoint] = {}
            for point in fullsystem_points:
                seen.setdefault(capture_key(point), point)
            captures = list(seen.values())

        report = self.report
        report.requested_points += len(requested)
        report.unique_points += len(unique)
        report.unique_baselines += len(baselines)

        baseline_tasks = [
            _Task(point, "precise", point_disk_key(point)) for point in baselines
        ]
        capture_tasks = [
            _Task(point, "capture", capture_key(point)) for point in captures
        ]
        technique_tasks = [
            _Task(point, "technique", point_disk_key(point))
            for point in technique_points
        ]
        fullsystem_tasks = [
            _Task(point, "fullsystem", point_disk_key(point))
            for point in fullsystem_points
        ]

        tracer = telemetry.tracer()
        all_tasks = baseline_tasks + capture_tasks + technique_tasks + fullsystem_tasks
        if tracer is not None:
            for task in all_tasks:
                tracer.emit(
                    "sweep.point.queued", point=task.point.describe(), kind=task.kind
                )
        journal = self._open_journal(all_tasks)
        self._install_signal_handler()
        try:
            if self.resume:
                baseline_tasks = self._restore_completed(baseline_tasks, journal)
                capture_tasks = self._restore_completed(capture_tasks, journal)
                technique_tasks = self._restore_completed(technique_tasks, journal)
                fullsystem_tasks = self._restore_completed(fullsystem_tasks, journal)
            self._run_wave(baseline_tasks + capture_tasks, journal)
            technique_tasks = self._fail_orphaned(technique_tasks, journal)
            fullsystem_tasks = self._fail_orphaned(fullsystem_tasks, journal)
            self._run_wave(technique_tasks + fullsystem_tasks, journal)
        finally:
            self._restore_signal_handler()
            journal.close()

        report.elapsed += time.time() - started
        self._emit_summary(report)
        return report

    # -- journal --------------------------------------------------------- #

    def _open_journal(self, tasks: Sequence[_Task]):
        """A journal beside the disk cache; a no-op one without a cache.

        Without the content-addressed disk cache there is nowhere to
        restore completed results from, so checkpointing is disabled
        rather than half-working.
        """
        if diskcache.active_cache() is None:
            return NullJournal()
        return RunJournal.for_keys([t.key for t in tasks], resume=self.resume)

    def _restore_completed(self, tasks: List[_Task], journal) -> List[_Task]:
        """Serve journal-completed points from the disk cache; keep the rest.

        A ``done`` record whose cache entry has vanished (evicted,
        corrupted, cleared) silently demotes the point back to pending —
        the journal is bookkeeping, the cache is the source of results.
        Previously *failed* points are always retried on resume.
        """
        disk = diskcache.active_cache()
        remaining: List[_Task] = []
        for task in tasks:
            if task.key in journal.done and self._restore_one(task, disk):
                self.report.resumed_points += 1
                continue
            remaining.append(task)
        return remaining

    def _restore_one(self, task: _Task, disk) -> bool:
        """Restore one journal-completed task from its persistent layer."""
        if task.kind == "capture":
            store = tracestore.active_store()
            return store is not None and store.has(task.key)
        if disk is None:
            return False
        stored = disk.get(task.key)
        if task.kind == "precise" and isinstance(stored, common.PreciseReference):
            _backfill_precise(task.point, stored)
            return True
        if task.kind == "technique" and isinstance(stored, common.TechniqueResult):
            _backfill_technique(task.point, stored)
            return True
        if task.kind == "fullsystem" and isinstance(stored, FullSystemResult):
            _backfill_fullsystem(task.point, stored)
            return True
        return False

    # -- wave orchestration ---------------------------------------------- #

    def _run_wave(self, tasks: Sequence[_Task], journal) -> None:
        if not tasks:
            return
        if self.jobs == 1 or self._serial_fallback:
            self._run_serial(tasks, journal)
        else:
            self._run_supervised(list(tasks), journal)

    def _fail_orphaned(self, tasks: List[_Task], journal) -> List[_Task]:
        """Pre-fail wave-2 points whose dependency permanently failed.

        A technique point depends on its precise baseline; a full-system
        point on its trace capture. Their workers would only rediscover
        the failure (against a placeholder) the slow and confusing way.
        """
        if not self._failed_baseline_keys:
            return tasks
        remaining: List[_Task] = []
        for task in tasks:
            if task.kind == "fullsystem":
                dependency_key = capture_key(task.point)
                error_type, message = (
                    "CaptureFailed",
                    "trace capture for this point failed",
                )
            else:
                dependency_key = point_disk_key(task.point.baseline())
                error_type, message = (
                    "BaselineFailed",
                    "precise baseline for this point failed",
                )
            if dependency_key in self._failed_baseline_keys:
                failure = PointFailure(
                    point=task.point,
                    kind=task.kind,
                    error_type=error_type,
                    message=message,
                    attempts=0,
                )
                self._register_failure(task, failure, journal)
            else:
                remaining.append(task)
        return remaining

    # -- serial execution ------------------------------------------------- #

    def _run_serial(self, tasks: Sequence[_Task], journal) -> None:
        """In-process execution with the same retry/failure envelope.

        Also the degradation target after repeated pool failures: an
        injected worker crash raises in-process here (see
        :func:`repro.faults.before_point`) and becomes a PointFailure.
        """
        for task in tasks:
            while True:
                task.started = time.monotonic()
                try:
                    _, result, counters = task.worker(task.point, task.attempts)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    task.attempts += 1
                    if task.attempts <= self.retries:
                        self.report.retried_attempts += 1
                        time.sleep(self._backoff_delay(task.attempts, task.key))
                        continue
                    self._record_failure(task, exc, journal)
                    break
                else:
                    self._record_success(task, result, counters, journal)
                    break

    # -- supervised pool execution ---------------------------------------- #

    def _run_supervised(self, tasks: List[_Task], journal) -> None:
        """The fault-tolerant parallel loop.

        In-flight submissions are capped at the worker count, so a
        submitted future starts (approximately) immediately and its
        submission time is an honest start-of-attempt clock for the
        per-point timeout.
        """
        pending: deque = deque(tasks)
        retry_heap: List[Tuple[float, int, _Task]] = []
        inflight: Dict[object, Tuple[_Task, float]] = {}
        pool: Optional[ProcessPoolExecutor] = self._new_pool()
        clean_exit = False
        try:
            while pending or retry_heap or inflight:
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    pending.append(heapq.heappop(retry_heap)[2])

                while pending and len(inflight) < self.jobs:
                    task = pending.popleft()
                    task.started = time.monotonic()
                    try:
                        future = pool.submit(task.worker, task.point, task.attempts)
                    except BrokenExecutor:
                        pending.appendleft(task)
                        pool = self._recover_pool(pool, inflight, pending)
                        if pool is None:
                            self._drain_serial(pending, retry_heap, journal)
                            clean_exit = True
                            return
                        continue
                    deadline = (
                        now + self.point_timeout if self.point_timeout else math.inf
                    )
                    inflight[future] = (task, deadline)

                if not inflight:
                    if pending:
                        continue
                    if retry_heap:
                        time.sleep(
                            min(0.2, max(0.0, retry_heap[0][0] - time.monotonic()))
                        )
                        continue
                    break

                wait_timeout = self._wait_timeout(inflight, retry_heap)
                done, _ = futures_wait(
                    set(inflight), timeout=wait_timeout, return_when=FIRST_COMPLETED
                )

                pool_broke = False
                for future in done:
                    task, _ = inflight.pop(future)
                    try:
                        _, result, counters = future.result()
                    except BrokenExecutor:
                        # The pool died under this task; which process
                        # crashed is unknowable, so the task is requeued
                        # uncharged — the rebuild limit, not the retry
                        # budget, bounds a deterministic crasher.
                        pending.appendleft(task)
                        pool_broke = True
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except Exception as exc:
                        self._attempt_failed(task, exc, retry_heap, journal)
                    else:
                        self._record_success(task, result, counters, journal)

                if pool_broke:
                    pool = self._recover_pool(pool, inflight, pending)
                    if pool is None:
                        self._drain_serial(pending, retry_heap, journal)
                        clean_exit = True
                        return
                    continue

                if self.point_timeout:
                    pool = self._reap_timeouts(
                        pool, inflight, pending, retry_heap, journal
                    )
                    if pool is None:
                        self._drain_serial(pending, retry_heap, journal)
                        clean_exit = True
                        return
            clean_exit = True
        finally:
            if pool is not None:
                self._shutdown_pool(pool, kill=not clean_exit)

    def _wait_timeout(
        self, inflight: Dict, retry_heap: List
    ) -> Optional[float]:
        now = time.monotonic()
        candidates = []
        next_deadline = min(deadline for _, deadline in inflight.values())
        if next_deadline < math.inf:
            candidates.append(next_deadline - now)
        if retry_heap:
            candidates.append(retry_heap[0][0] - now)
        if not candidates:
            return None
        return max(0.01, min(candidates))

    def _reap_timeouts(
        self, pool, inflight: Dict, pending: deque, retry_heap: List, journal
    ):
        """Abandon overdue attempts; the hung worker forces a pool rebuild.

        A hung worker cannot be cancelled through the executor API, so
        the whole pool is killed: overdue tasks are charged a failed
        attempt, innocent in-flight tasks are requeued uncharged.
        Returns the replacement pool, or None when the rebuild budget is
        exhausted (degrade to serial).
        """
        now = time.monotonic()
        if not any(deadline <= now for _, deadline in inflight.values()):
            return pool
        for future, (task, deadline) in list(inflight.items()):
            if deadline <= now:
                self.report.timeouts += 1
                exc = PointTimeoutError(
                    f"{task.point.describe()} exceeded --point-timeout "
                    f"({self.point_timeout:g}s)"
                )
                self._attempt_failed(task, exc, retry_heap, journal)
            else:
                pending.appendleft(task)
        inflight.clear()
        return self._rebuild_or_degrade(pool)

    def _recover_pool(self, pool, inflight: Dict, pending: deque):
        """After BrokenProcessPool: requeue everything in flight, rebuild."""
        for task, _ in inflight.values():
            pending.appendleft(task)
        inflight.clear()
        return self._rebuild_or_degrade(pool)

    def _rebuild_or_degrade(self, pool):
        tracer = telemetry.tracer()
        if tracer is not None:
            tracer.emit("sweep.pool.rebuild", count=self.report.pool_rebuilds + 1)
        self.report.pool_rebuilds += 1
        self._shutdown_pool(pool, kill=True)
        if self.report.pool_rebuilds > self.max_pool_rebuilds:
            self._serial_fallback = True
            return None
        return self._new_pool()

    def _drain_serial(self, pending: deque, retry_heap: List, journal) -> None:
        """Finish the wave in-process after giving up on pools."""
        remaining = list(pending) + [task for _, _, task in retry_heap]
        pending.clear()
        retry_heap.clear()
        self._run_serial(remaining, journal)

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs, initializer=_pool_worker_init
        )

    @staticmethod
    def _shutdown_pool(pool, kill: bool) -> None:
        """Shut a pool down; ``kill`` also terminates hung workers.

        Reaches into ``_processes`` because the executor API offers no
        way to reclaim a worker stuck in an injected (or real) hang.
        """
        if kill:
            for process in list(getattr(pool, "_processes", {}).values()):
                try:
                    process.terminate()
                except Exception:
                    pass
        pool.shutdown(wait=False, cancel_futures=True)

    # -- attempt bookkeeping ---------------------------------------------- #

    def _backoff_delay(self, attempt: int, key: str = "") -> float:
        """Exponential backoff with multiplicative jitter in [0.5, 1.5).

        The jitter fraction is a pure hash of (jitter_seed, point key,
        attempt number) rather than a draw from a shared RNG stream, so
        a given point's retry schedule is identical regardless of the
        completion order of every other point — reproducible under
        ``--inject flaky`` even with a racing pool.
        """
        delay = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        digest = hashlib.sha256(
            f"{self.jitter_seed};{key};{attempt}".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2.0**64
        return delay * (0.5 + fraction)

    def _attempt_failed(self, task: _Task, exc: Exception, retry_heap, journal) -> None:
        task.attempts += 1
        if task.attempts <= self.retries:
            self.report.retried_attempts += 1
            tracer = telemetry.tracer()
            if tracer is not None:
                tracer.emit(
                    "sweep.point.retry",
                    point=task.point.describe(),
                    kind=task.kind,
                    attempt=task.attempts,
                    error=type(exc).__name__,
                )
            eligible = time.monotonic() + self._backoff_delay(task.attempts, task.key)
            heapq.heappush(retry_heap, (eligible, next(self._seq), task))
        else:
            self._record_failure(task, exc, journal)

    def _record_success(self, task: _Task, result, counters, journal) -> None:
        if task.kind == "precise":
            _backfill_precise(task.point, result)
        elif task.kind == "technique":
            _backfill_technique(task.point, result)
        elif task.kind == "fullsystem":
            _backfill_fullsystem(task.point, result)
        # "capture": the trace store entry *is* the artifact; nothing to
        # backfill in the parent beyond the counters.
        self._absorb_counters(_ZERO_COUNTERS, counters)
        journal.record_done(task.kind, task.key)
        if telemetry.enabled():
            wall = time.monotonic() - task.started if task.started else 0.0
            telemetry.metrics().histogram("sweep.point.wall_s").observe(wall)
            tracer = telemetry.tracer()
            if tracer is not None:
                tracer.emit(
                    "sweep.point.done",
                    point=task.point.describe(),
                    kind=task.kind,
                    wall_s=round(wall, 6),
                )

    def _record_failure(self, task: _Task, exc: Exception, journal) -> None:
        failure = PointFailure(
            point=task.point,
            kind=task.kind,
            error_type=type(exc).__name__,
            message=str(exc) or type(exc).__name__,
            attempts=max(1, task.attempts),
        )
        self._register_failure(task, failure, journal)

    def _register_failure(self, task: _Task, failure: PointFailure, journal) -> None:
        tracer = telemetry.tracer()
        if tracer is not None:
            tracer.emit(
                "sweep.point.failed",
                point=task.point.describe(),
                kind=task.kind,
                error=failure.error_type,
                attempts=failure.attempts,
            )
        self.report.failures.append(failure)
        message = f"{failure.error_type}: {failure.message}"
        if task.kind == "precise":
            _backfill_precise(task.point, common.failed_precise_reference(message))
            self._failed_baseline_keys.add(task.key)
        elif task.kind == "capture":
            # Dependents are pre-failed by _fail_orphaned; their FAILED
            # placeholders carry the render-path NaNs.
            self._failed_baseline_keys.add(task.key)
        elif task.kind == "fullsystem":
            _backfill_fullsystem(task.point, common.failed_fullsystem_result(message))
        else:
            _backfill_technique(task.point, common.failed_technique_result(message))
        journal.record_failed(
            task.kind, task.key, failure.error_type, failure.message, failure.attempts
        )

    def _emit_summary(self, report: SweepReport) -> None:
        """Publish the run report to the trace and metrics registry."""
        if not telemetry.enabled():
            return
        registry = telemetry.metrics()
        registry.gauge("sweep.unique_points").set(report.unique_points)
        registry.gauge("sweep.precise_computed").set(report.precise_computed)
        registry.gauge("sweep.technique_computed").set(report.technique_computed)
        registry.gauge("sweep.fullsystem_computed").set(report.fullsystem_computed)
        registry.gauge("sweep.traces_captured").set(report.traces_captured)
        registry.gauge("sweep.trace_store_hits").set(report.trace_store_hits)
        registry.gauge("sweep.disk_hits").set(report.disk_hits)
        registry.gauge("sweep.failures").set(len(report.failures))
        registry.gauge("sweep.elapsed_s").set(report.elapsed)
        tracer = telemetry.tracer()
        if tracer is not None:
            tracer.emit(
                "sweep.summary",
                elapsed_s=round(report.elapsed, 6),
                unique_points=report.unique_points,
                baselines=report.unique_baselines,
                precise_computed=report.precise_computed,
                technique_computed=report.technique_computed,
                fullsystem_computed=report.fullsystem_computed,
                traces_captured=report.traces_captured,
                trace_store_hits=report.trace_store_hits,
                disk_hits=report.disk_hits,
                retried=report.retried_attempts,
                timeouts=report.timeouts,
                pool_rebuilds=report.pool_rebuilds,
                failed=len(report.failures),
            )

    # -- signals ---------------------------------------------------------- #

    def _install_signal_handler(self) -> None:
        """Fold SIGTERM into the KeyboardInterrupt shutdown path."""
        self._old_sigterm = None
        if threading.current_thread() is threading.main_thread():
            try:
                self._old_sigterm = signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
            except (ValueError, OSError):
                self._old_sigterm = None

    def _restore_signal_handler(self) -> None:
        if self._old_sigterm is not None:
            try:
                signal.signal(signal.SIGTERM, self._old_sigterm)
            except (ValueError, OSError):
                pass
            self._old_sigterm = None

    # -- counters ---------------------------------------------------------- #

    def _absorb_counters(self, before: Dict[str, int], after: Dict[str, int]) -> None:
        report = self.report
        report.precise_computed += after["precise_computed"] - before["precise_computed"]
        report.technique_computed += (
            after["technique_computed"] - before["technique_computed"]
        )
        report.fullsystem_computed += (
            after["fullsystem_computed"] - before["fullsystem_computed"]
        )
        report.traces_captured += after["traces_captured"] - before["traces_captured"]
        report.trace_store_hits += (
            after["trace_store_hits"] - before["trace_store_hits"]
        )
        report.disk_hits += (
            after["precise_disk_hits"]
            - before["precise_disk_hits"]
            + after["technique_disk_hits"]
            - before["technique_disk_hits"]
            + after["fullsystem_disk_hits"]
            - before["fullsystem_disk_hits"]
        )


_ZERO_COUNTERS: Dict[str, int] = common.ComputeCounters().as_dict()
