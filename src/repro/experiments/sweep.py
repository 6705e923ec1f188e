"""Point-level parallel sweep engine with fault-tolerant supervision.

The figure/ablation drivers are sweeps over *points* — (workload, mode,
config, seed, scale, params) tuples fed to
:func:`~repro.experiments.common.run_technique`. Running whole experiments
in parallel worker processes wastes most of that structure: Figures 4 and
5 share every LVA run, every point needs the same per-workload precise
baseline, and separate processes share no cache.

This engine flips the unit of parallelism from experiments to points:

1. Drivers declare their points: ``DRIVER.points(small, seed)`` runs
   ``DRIVER.render`` once with every run function recording the point
   it was asked for and answering a FAILED placeholder.
2. The engine **dedupes** points across every requested experiment, and
   serves in this process every point whose result the disk cache (or,
   for a trace capture, the trace store) already holds. Only the rest
   reach a worker, so a fully cached run starts no pool.
3. The unique *precise baselines* implied by the points run first, fanned
   out over a :class:`~concurrent.futures.ProcessPoolExecutor` — each is
   computed **exactly once** across all workers (the wave barrier, not
   locking, provides the guarantee).
4. The technique points fan out next; workers read the now-warm baselines
   from the shared disk cache (:mod:`~repro.experiments.diskcache`).
5. Results are backfilled into the parent's result memo under
   :func:`~repro.experiments.common.point_cache_key`, the key the run
   functions look up, so the drivers afterwards assemble their tables
   for free.

Because the simulations are deterministic, a table built from engine
results is bit-identical to one built by running the driver alone.

**Supervision.** Execution survives partial failure: every point attempt
is bounded by an optional per-point timeout, failed attempts are retried
with exponential backoff and jitter (``retries``), a dead worker
(``BrokenProcessPool``) rebuilds the pool and requeues the in-flight
points, and after ``MAX_POOL_REBUILDS`` rebuilds the engine degrades to
serial in-process execution — where even a deterministic crasher is
reduced to a caught exception. A point that exhausts its retries yields
a structured :class:`PointFailure` (and a FAILED table cell via the
in-memory failure placeholders of :mod:`~repro.experiments.common`)
instead of killing the run.

**Rerunning an interrupted sweep.** The disk cache and the trace store
are the checkpoint: each result is published there as its point
completes. SIGINT/SIGTERM shut the pool down cleanly, and running the
same command again serves every stored point and recomputes only the
rest (the points that were in flight, missing or failed), giving a
table bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import heapq
import importlib
import itertools
import math
import os
import signal
import sys
import threading
import time
from collections import Counter, deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
)
from concurrent.futures import wait as futures_wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import faults, telemetry
from repro.errors import PointTimeoutError
from repro.experiments import common, diskcache, tracestore
from repro.experiments.common import SweepPoint, point_disk_key

#: Retry backoff before jitter: the first retry waits BACKOFF_BASE
#: seconds, each later one twice as long, up to BACKOFF_CAP.
BACKOFF_BASE = 0.5
BACKOFF_CAP = 30.0
#: Pool rebuilds after which the engine degrades to serial execution.
MAX_POOL_REBUILDS = 3


def capture_key(point: SweepPoint) -> str:
    """The trace-store key of the capture a full-system point depends on."""
    return common.trace_disk_key(point.workload, point.seed, point.small)


def _backfill(point: SweepPoint, result) -> None:
    """Memoize one result in this process, where ``render()`` looks it up."""
    common._RESULTS[common.point_cache_key(point)] = result


# --------------------------------------------------------------------- #
# Worker entry point (module-level for pickling)                        #
# --------------------------------------------------------------------- #


def _fault_target(kind: str, point: SweepPoint) -> tuple:
    """What ``--inject`` engine clauses match a task on.

    ``(kind, workload, mode, seed, small, config)``, the arguments of
    :meth:`repro.faults.FaultClause.matches` and, with the attempt
    number, of :func:`repro.faults.before_point`. A capture carries a
    full-system point but matches as a clean, unconfigured run.
    """
    if kind == "technique":
        mode, config = point.mode.value, point.config
    elif kind == "fullsystem":
        mode, config = "lva" if point.approximate else "baseline", point.config
    else:
        mode, config = None, None
    return kind, point.workload, mode, point.seed, point.small, config


def _run_worker(kind: str, point: SweepPoint, attempt: int = 0):
    """Run one task; returns (point, result, counters).

    ``kind`` is the point's own kind, or ``"capture"`` for the
    pre-capture wave of a full-system sweep: after a capture the trace
    store holds the packed columns, so every replay worker memory-maps
    them instead of re-running the workload, and the task's result is
    the trace's event count. Counters are per-task deltas — pool workers
    are reused across tasks, so cumulative values would double-count
    when aggregated.
    """
    faults.before_point(*_fault_target(kind, point), attempt=attempt)
    before = common.COMPUTE_COUNTERS.copy()
    tracer = telemetry.tracer()
    span = nullcontext()
    if tracer is not None:
        tracer.emit(
            "sweep.point.running", point=point.describe(), kind=kind, attempt=attempt
        )
        span = tracer.span("sweep.point", point=point.describe(), kind=kind)
    # The run functions are looked up on ``common`` at call time, so a
    # wrapper installed there (a profiler's layer timer) sees each call.
    with span, faults.memory_faults(point.faults):
        if kind == "precise":
            result = common.run_precise_reference(
                point.workload, point.seed, point.small, point.params_dict()
            )
        elif kind == "technique":
            result = common.run_technique(
                point.workload,
                point.mode,
                config=point.config,
                prefetch_degree=point.prefetch_degree,
                seed=point.seed,
                small=point.small,
                params=point.params_dict(),
            )
        elif kind == "capture":
            result = len(common.capture_trace(point.workload, point.seed, point.small))
        else:
            result = common.run_fullsystem_point(
                point.workload,
                approximate=point.approximate,
                approximator=point.config,
                seed=point.seed,
                small=point.small,
            )
    return point, result, common.COMPUTE_COUNTERS - before


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


def _warn_unmatched_faults(tasks: Sequence[_Task]) -> None:
    """Name on stderr each active engine clause that selects no task.

    Such a clause injects nothing, most often because its ``kind=``
    (default ``technique``) names a kind this sweep does not run.
    """
    clauses = faults.active_engine_clauses()
    if not clauses:
        return
    targets = [_fault_target(task.kind, task.point) for task in tasks]
    kinds = ", ".join(dict.fromkeys(task.kind for task in tasks)) or "none"
    for clause in clauses:
        if not any(clause.matches(*target) for target in targets):
            print(
                f"warning: --inject clause {clause.canonical()!r} selects no "
                f"task of this sweep (task kinds: {kinds})",
                file=sys.stderr,
            )


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
    #: Trace captures the restore pass served from the memory-mapped
    #: trace store. Workers' own store reads are not counted, so with the
    #: store active ``traces_captured + trace_store_hits`` is the number
    #: of distinct captures, however the replays were scheduled.
    trace_store_hits: int = 0
    #: Results read from the disk cache, by this process or a worker.
    disk_hits: int = 0
    elapsed: float = 0.0
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
    leaves the result memo ``common._RESULTS`` warm in the calling
    process, so ``DRIVER.render()`` calls afterwards cost only table
    assembly. ``retries``/``point_timeout`` configure the supervision
    layer (see the module docstring).
    """

    def __init__(
        self,
        jobs: int = 1,
        retries: int = 0,
        point_timeout: Optional[float] = None,
        jitter_seed: int = 0,
    ) -> None:
        self.jobs = max(1, jobs)
        self.retries = max(0, retries)
        self.point_timeout = point_timeout if point_timeout and point_timeout > 0 else None
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
        disk cache and memory-map the warm traces zero-copy. Before
        either wave, :meth:`_serve_cached` drops from both every task
        whose result is already stored.
        """
        started = time.monotonic()
        requested = list(points)
        unique: List[SweepPoint] = list(dict.fromkeys(requested))
        baselines: List[SweepPoint] = list(
            dict.fromkeys(point.baseline() for point in unique if not point.fullsystem)
        )
        technique_points = [p for p in unique if p.kind == "technique"]
        fullsystem_points = [p for p in unique if p.fullsystem]
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

        wave_one = [_Task(p, "precise", point_disk_key(p)) for p in baselines] + [
            _Task(p, "capture", capture_key(p)) for p in captures
        ]
        wave_two = [
            _Task(p, p.kind, point_disk_key(p))
            for p in technique_points + fullsystem_points
        ]

        _warn_unmatched_faults(wave_one + wave_two)
        tracer = telemetry.tracer()
        if tracer is not None:
            for task in wave_one + wave_two:
                tracer.emit(
                    "sweep.point.queued", point=task.point.describe(), kind=task.kind
                )
        self._install_signal_handler()
        try:
            wave_one = self._serve_cached(wave_one)
            wave_two = self._serve_cached(wave_two)
            self._run_wave(wave_one)
            self._run_wave(self._fail_orphaned(wave_two))
        finally:
            self._restore_signal_handler()

        report.elapsed += time.monotonic() - started
        self._emit_summary(report)
        return report

    # -- restore pass ---------------------------------------------------- #

    def _serve_cached(self, tasks: List[_Task]) -> List[_Task]:
        """Serve every already-stored task in this process; keep the rest.

        A capture is served when the trace store holds a verified entry
        for it, any other task when the disk cache holds a result of its
        kind (a corrupt entry heals as a miss). A served task runs no
        worker, so no injected point fault fires for it.
        """
        disk = diskcache.active_cache()
        if disk is None:
            return tasks
        store = tracestore.active_store()
        tracer = telemetry.tracer()
        report = self.report
        remaining: List[_Task] = []
        for task in tasks:
            if task.kind == "capture":
                if store is None or not store.has(task.key):
                    remaining.append(task)
                    continue
                source = "store"
                report.trace_store_hits += 1
            else:
                stored = disk.get(task.key)
                if not isinstance(stored, common.RESULT_TYPES[task.kind]):
                    remaining.append(task)
                    continue
                _backfill(task.point, stored)
                source = "disk"
                report.disk_hits += 1
            if tracer is not None:
                tracer.emit(
                    "sweep.point.cached",
                    point=task.point.describe(),
                    kind=task.kind,
                    source=source,
                )
        return remaining

    # -- wave orchestration ---------------------------------------------- #

    def _run_wave(self, tasks: Sequence[_Task]) -> None:
        if not tasks:
            return
        if self.jobs == 1 or self._serial_fallback:
            self._run_serial(tasks)
        else:
            self._run_supervised(list(tasks))

    def _fail_orphaned(self, tasks: List[_Task]) -> List[_Task]:
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
                self._register_failure(task, failure)
            else:
                remaining.append(task)
        return remaining

    # -- serial execution ------------------------------------------------- #

    def _run_serial(self, tasks: Sequence[_Task]) -> None:
        """In-process execution with the same retry/failure envelope.

        Also the degradation target after repeated pool failures: an
        injected worker crash raises in-process here (see
        :func:`repro.faults.before_point`) and becomes a PointFailure.
        """
        for task in tasks:
            while True:
                task.started = time.monotonic()
                try:
                    _, result, counters = _run_worker(
                        task.kind, task.point, task.attempts
                    )
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    task.attempts += 1
                    if task.attempts <= self.retries:
                        self.report.retried_attempts += 1
                        time.sleep(self._backoff_delay(task.attempts, task.key))
                        continue
                    self._record_failure(task, exc)
                    break
                else:
                    self._record_success(task, result, counters)
                    break

    # -- supervised pool execution ---------------------------------------- #

    def _run_supervised(self, tasks: List[_Task]) -> None:
        """The fault-tolerant parallel loop.

        Without a per-point timeout, two points per worker are in flight:
        a queued point starts as soon as a worker frees up, instead of
        the worker idling while this loop collects the last result and
        submits the next point. With a timeout, in-flight submissions are
        capped at the worker count. The timeout clock starts at
        submission, and the executor counts a queued future as running,
        so a point waiting behind another would be charged its wait.
        """
        pending: deque = deque(tasks)
        retry_heap: List[Tuple[float, int, _Task]] = []
        inflight: Dict[object, Tuple[_Task, float]] = {}
        cap = self.jobs if self.point_timeout else 2 * self.jobs
        pool: Optional[ProcessPoolExecutor] = self._new_pool()
        clean_exit = False
        try:
            while pending or retry_heap or inflight:
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    pending.append(heapq.heappop(retry_heap)[2])

                while pending and len(inflight) < cap:
                    task = pending.popleft()
                    task.started = time.monotonic()
                    try:
                        future = pool.submit(
                            _run_worker, task.kind, task.point, task.attempts
                        )
                    except BrokenExecutor:
                        pending.appendleft(task)
                        pool = self._recover_pool(pool, inflight, pending)
                        if pool is None:
                            self._drain_serial(pending, retry_heap)
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
                        self._attempt_failed(task, exc, retry_heap)
                    else:
                        self._record_success(task, result, counters)

                if pool_broke:
                    pool = self._recover_pool(pool, inflight, pending)
                    if pool is None:
                        self._drain_serial(pending, retry_heap)
                        clean_exit = True
                        return
                    continue

                if self.point_timeout:
                    pool = self._reap_timeouts(pool, inflight, pending, retry_heap)
                    if pool is None:
                        self._drain_serial(pending, retry_heap)
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

    def _reap_timeouts(self, pool, inflight: Dict, pending: deque, retry_heap: List):
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
                self._attempt_failed(task, exc, retry_heap)
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
        if self.report.pool_rebuilds > MAX_POOL_REBUILDS:
            self._serial_fallback = True
            return None
        return self._new_pool()

    def _drain_serial(self, pending: deque, retry_heap: List) -> None:
        """Finish the wave in-process after giving up on pools."""
        remaining = list(pending) + [task for _, _, task in retry_heap]
        pending.clear()
        retry_heap.clear()
        self._run_serial(remaining)

    def _new_pool(self) -> ProcessPoolExecutor:
        # Forked workers inherit the simulators instead of each importing
        # them (and numpy) on its first point.
        for name in ("repro.sim.tracesim", "repro.workloads.registry", "repro.fullsystem.system"):
            importlib.import_module(name)
        return ProcessPoolExecutor(max_workers=self.jobs)

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
        delay = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** (attempt - 1)))
        digest = hashlib.sha256(
            f"{self.jitter_seed};{key};{attempt}".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2.0**64
        return delay * (0.5 + fraction)

    def _attempt_failed(self, task: _Task, exc: Exception, retry_heap) -> None:
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
            self._record_failure(task, exc)

    def _record_success(self, task: _Task, result, counters) -> None:
        # A capture has no result to backfill: its trace-store entry *is*
        # the artifact, and the parent takes only its counters.
        if task.kind in common.RESULT_TYPES:
            _backfill(task.point, result)
        self._absorb_counters(counters)
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

    def _record_failure(self, task: _Task, exc: Exception) -> None:
        failure = PointFailure(
            point=task.point,
            kind=task.kind,
            error_type=type(exc).__name__,
            message=str(exc) or type(exc).__name__,
            attempts=max(1, task.attempts),
        )
        self._register_failure(task, failure)

    def _register_failure(self, task: _Task, failure: PointFailure) -> None:
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
        placeholder = common.FAILED_RESULTS.get(task.kind)
        if placeholder is not None:
            _backfill(task.point, placeholder(message))
        if task.kind in ("precise", "capture"):
            # Wave-2 dependents are pre-failed by _fail_orphaned; their
            # FAILED placeholders carry the render-path NaNs.
            self._failed_baseline_keys.add(task.key)

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
        """Fold SIGTERM into the KeyboardInterrupt shutdown path.

        Only in this process: a forked pool worker inherits the handler,
        and there it restores the default action and sends SIGTERM to
        itself again, so a terminated worker dies quietly.
        """
        self._old_sigterm = None
        if threading.current_thread() is not threading.main_thread():
            return
        owner = os.getpid()

        def sigterm_to_interrupt(signum, frame):
            if os.getpid() != owner:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                os.kill(os.getpid(), signal.SIGTERM)
                return
            raise KeyboardInterrupt("SIGTERM")

        try:
            self._old_sigterm = signal.signal(signal.SIGTERM, sigterm_to_interrupt)
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

    def _absorb_counters(self, counters: Counter) -> None:
        """Add one task's counter deltas to the report.

        A worker's ``trace_store_hits`` are left out: how often workers
        re-read a trace depends on which worker replays which point.
        """
        report = self.report
        report.precise_computed += counters["precise_computed"]
        report.technique_computed += counters["technique_computed"]
        report.fullsystem_computed += counters["fullsystem_computed"]
        report.traces_captured += counters["traces_captured"]
        report.disk_hits += sum(
            counters[kind + "_disk_hits"] for kind in common.RESULT_TYPES
        )
