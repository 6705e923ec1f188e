"""Layer timers that the benchmark installs around the program's public calls.

:func:`install` runs inside the experiments CLI's process, before its
``main()``. It replaces every function listed in :data:`TIMED` with a
wrapper that keeps, per function, the number of calls, their inclusive
time, the time of the timed calls made inside them and the number of
those calls. Spans stay in memory: each process writes its totals to
``<out_dir>/<pid>.json`` when it ends. Sweep pool workers are forked
after ``install``, so they inherit the wrappers; each starts from zero.

Counts come from the stats objects the layers already keep
(``SimulationStats``, ``CacheStats``, ``ApproximatorStats``,
``PrefetcherStats``, ``FullSystemResult``), read when
``TraceSimulator.finish`` and ``FullSystemSimulator.run`` return. With
``counts_only`` nothing is timed and only those counts are kept: that is
how the pins record a cold run's operation count at full speed.

:func:`summarize` turns the dumps of one cold and one warm invocation
into the per-layer metrics. It needs none of the program's modules.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import Counter
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import measure

#: (layer, module, qualified name) of every timed public call.
TIMED: Tuple[Tuple[str, str, str], ...] = (
    ("workloads", "repro.workloads.base", "Workload.execute"),
    ("frontend", "repro.sim.frontend", "MemoryFrontend.load"),
    ("frontend", "repro.sim.frontend", "MemoryFrontend.load_approx"),
    ("frontend", "repro.sim.frontend", "MemoryFrontend.store"),
    ("frontend", "repro.sim.frontend", "MemoryFrontend.advance"),
    ("mem", "repro.mem.cache", "SetAssociativeCache.probe"),
    ("mem", "repro.mem.cache", "SetAssociativeCache.fill"),
    ("mem", "repro.mem.cache", "SetAssociativeCache.contains"),
    ("mem", "repro.mem.cache", "SetAssociativeCache.invalidate"),
    ("approx", "repro.core.approximator", "LoadValueApproximator.on_miss"),
    ("approx", "repro.core.approximator", "LoadValueApproximator.train"),
    ("approx", "repro.predictors.lvp", "IdealizedLoadValuePredictor.on_miss"),
    ("approx", "repro.predictors.lvp", "IdealizedLoadValuePredictor.train"),
    ("approx", "repro.predictors.clp", "CacheLevelPredictor.on_miss"),
    ("approx", "repro.predictors.clp", "CacheLevelPredictor.train"),
    ("approx", "repro.predictors.hybrid", "HybridPredictor.on_miss"),
    ("approx", "repro.predictors.hybrid", "HybridPredictor.train"),
    ("prefetch", "repro.prefetch.ghb", "GHBPrefetcher.on_miss"),
    ("prefetch", "repro.prefetch.nextline", "NextLinePrefetcher.on_miss"),
    ("capture", "repro.experiments.common", "capture_trace"),
    ("capture", "repro.sim.trace", "Trace.pack"),
    ("fullsystem", "repro.fullsystem.system", "FullSystemSimulator.run"),
    ("noc", "repro.noc.network", "MeshNetwork.send"),
    ("noc", "repro.noc.detailed", "DetailedMeshNetwork.run"),
    ("cpu", "repro.cpu.core", "CoreTimingModel.advance"),
    ("cpu", "repro.cpu.core", "CoreTimingModel.issue_load"),
    ("diskcache", "repro.experiments.diskcache", "DiskCache.get"),
    ("diskcache", "repro.experiments.diskcache", "DiskCache.put"),
    ("tracestore", "repro.experiments.tracestore", "TraceStore.get"),
    ("tracestore", "repro.experiments.tracestore", "TraceStore.put"),
    ("sweep", "repro.experiments.sweep", "SweepEngine.execute"),
    ("render", "repro.experiments.common", "Driver.render"),
    # Point functions: their own time is simulator set-up, finish() and
    # output-error scoring, which belong to no layer above.
    ("points", "repro.experiments.common", "run_precise_reference"),
    ("points", "repro.experiments.common", "run_technique"),
    ("points", "repro.experiments.common", "run_fullsystem_point"),
)

#: Key of each timed function in the dumps, by qualified name.
KEYS: Dict[str, str] = {qualname: f"{module}:{qualname}" for _, module, qualname in TIMED}

#: Functions whose spans count as sweep points when they open at the top
#: of a pool worker (or directly under the engine, when it runs serially).
POINT_FUNCTIONS = frozenset(
    ("capture_trace", "run_precise_reference", "run_technique", "run_fullsystem_point")
)

#: Layer of the frame that stands for "no span open".
ROOT = "root"

After = Callable[[tuple, object, int], None]


class Recorder:
    """One process's span totals, stats counts and sweep-point durations."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        #: key -> [calls, inclusive_ns, child_ns, child_calls]
        self.slots: Dict[str, List[int]] = {}
        self.layers: Dict[str, str] = {}
        #: Open spans, innermost last; a frame is [child_ns, child_calls, layer].
        self.root: list = [0, 0, ROOT]
        self.stack: list = [self.root]
        self.points_ns: List[int] = []
        self.counts: Counter = Counter()
        self.sweeps: List[dict] = []
        self.timer_in_ns = 0.0
        self.timer_out_ns = 0.0
        self.role = "main"
        self.started_ns = time.perf_counter_ns()
        self.lva_type: type = type(None)

    def start(self) -> None:
        """Forget what was recorded so far; the traced wall time starts now."""
        for slot in self.slots.values():
            slot[:] = [0, 0, 0, 0]
        self.root[0] = self.root[1] = 0
        del self.stack[1:]
        self.points_ns.clear()
        self.counts.clear()
        self.sweeps.clear()
        self.started_ns = time.perf_counter_ns()

    def _after_fork(self) -> None:
        # Runs in each forked multiprocessing child once the finalizers it
        # inherited are dropped: start from zero, dump when the child exits.
        self.role = "worker"
        self.start()
        mp_util.Finalize(self, self.dump, exitpriority=100)

    def dump(self) -> None:
        """Write this process's totals to ``<out_dir>/<pid>.json``."""
        wall = time.perf_counter_ns() - self.started_ns
        payload = {
            "pid": os.getpid(),
            "role": self.role,
            "wall_ns": wall,
            "timer_in_ns": self.timer_in_ns,
            "timer_out_ns": self.timer_out_ns,
            "slots": {key: slot for key, slot in self.slots.items() if slot[0]},
            "layers": self.layers,
            "root": self.root[:2],
            "points_ns": self.points_ns,
            "counts": dict(self.counts),
            "sweeps": self.sweeps,
        }
        path = self.out_dir / f"{os.getpid()}.json"
        scratch = self.out_dir / f".{os.getpid()}.tmp"
        scratch.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(scratch, path)

    def wrap(self, fn: Callable, key: str, layer: str, point: bool = False, after=None):
        """``fn``, timed as a span of ``layer`` and totalled under ``key``.

        ``point`` also keeps the span's duration as a sweep point when it
        opens at top level or directly under the sweep engine; ``after``
        sees ``(args, result, elapsed_ns)`` once the call has returned.
        """
        slot = self.slots.setdefault(key, [0, 0, 0, 0])
        self.layers[key] = layer
        stack = self.stack
        clock = time.perf_counter_ns

        if not point and after is None:

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                frame = [0, 0, layer]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1] += 1
                    slot[0] += 1
                    slot[1] += elapsed
                    if frame[1]:
                        slot[2] += frame[0]
                        slot[3] += frame[1]

            return timed

        samples = self.points_ns if point else None

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            frame = [0, 0, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[0] += elapsed
                parent[1] += 1
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += frame[0]
                slot[3] += frame[1]
                if samples is not None and parent[2] in (ROOT, "sweep"):
                    samples.append(elapsed)
            if after is not None:
                after(args, result, elapsed)
            return result

        return observed

    def calibrate(self, rounds: int = 9, calls: int = 20000) -> None:
        """Measure what one timed call costs, inside its span and around it."""
        scratch = Recorder(self.out_dir)

        def target(a, b):
            return None

        timed = scratch.wrap(target, "calibration", "calibration")
        slot = scratch.slots["calibration"]
        clock = time.perf_counter_ns
        inside: List[float] = []
        around: List[float] = []
        for _ in range(rounds):
            start = clock()
            for _ in range(calls):
                target(1, 2)
            bare = clock() - start
            slot[1] = 0
            start = clock()
            for _ in range(calls):
                timed(1, 2)
            total = clock() - start
            inside.append(max(0.0, (slot[1] - bare) / calls))
            around.append((total - bare) / calls - inside[-1])
        self.timer_in_ns = statistics.median(inside)
        self.timer_out_ns = max(0.0, statistics.median(around))

    def _cache(self, stats, l1: bool) -> None:
        counts = self.counts
        counts["cache_probes"] += stats.accesses
        counts["cache_fills"] += stats.fills
        if l1:
            counts["l1_accesses"] += stats.accesses
            counts["l1_misses"] += stats.misses

    def _lva(self, technique) -> None:
        if isinstance(technique, self.lva_type):
            self.counts["lva_trainings"] += technique.stats.trainings
            self.counts["lva_stale"] += technique.stats.stale_trainings

    def on_finish(self, args: tuple, stats, elapsed: int) -> None:
        """After ``TraceSimulator.finish``: one phase-1 simulation's counts."""
        sim = args[0]
        counts = self.counts
        counts["frontend_ops"] += stats.loads + stats.stores
        self._cache(sim.l1.stats, l1=True)
        techniques = (sim.approximator, sim.predictor, sim.generic_predictor)
        technique = next((t for t in techniques if t is not None), None)
        if technique is not None:
            counts["approx_lookups"] += technique.stats.lookups
            counts["approx_covered"] += stats.covered_misses
            self._lva(technique)
            self._lva(getattr(technique, "lva", None))  # the hybrid's LVA half
        if sim.prefetcher is not None:
            counts["prefetch_triggers"] += sim.prefetcher.stats.triggers
            counts["prefetch_fetches"] += stats.prefetch_fetches
            counts["prefetch_useful"] += sim.l1.stats.useful_prefetches

    def on_replay(self, args: tuple, result, elapsed: int) -> None:
        """After ``FullSystemSimulator.run``: one phase-2 replay's counts."""
        system, trace = args[0], args[1]
        counts = self.counts
        counts["fullsystem_replays"] += 1
        counts["fullsystem_events"] += len(trace)
        for l1 in system.l1s:
            self._cache(l1.stats, l1=True)
        self._cache(system.l2.stats, l1=False)
        if system.approximators is not None:
            for approximator in system.approximators:
                counts["approx_lookups"] += approximator.stats.lookups
                self._lva(approximator)
            counts["approx_covered"] += result.covered_misses

    def on_pack(self, args: tuple, packed, elapsed: int) -> None:
        """After ``Trace.pack``: one captured trace."""
        self.counts["capture_runs"] += 1
        self.counts["capture_events"] += len(packed)

    def hit_counter(self, name: str) -> After:
        """An ``after`` hook counting the calls that returned something."""

        def count(args: tuple, result, elapsed: int) -> None:
            if result is not None:
                self.counts[name] += 1

        return count

    def on_sweep(self, args: tuple, report, elapsed: int) -> None:
        """After ``SweepEngine.execute``: the sweep's shape and wall time."""
        from repro.experiments.sweep import point_disk_key

        engine, points = args[0], args[1]
        unique = list(dict.fromkeys(points))
        keys = {point_disk_key(point) for point in unique}
        self.sweeps.append(
            {
                "jobs": engine.jobs,
                "engine_ns": elapsed,
                "requested": report.requested_points,
                "unique": report.unique_points,
                # Unique points whose result another point already stores.
                "duplicates": len(unique) - len(keys),
            }
        )


def _hooked(fn: Callable, after: After) -> Callable:
    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, result, 0)
        return result

    return hooked


def _resolve(module: str, qualname: str):
    """(owner, attribute name, the owner's own definition) of a function."""
    owner_path, _, name = qualname.rpartition(".")
    owner = importlib.import_module(module)
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part)
    original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, original


def _replace(owner, name: str, original: Callable, wrapper: Callable) -> None:
    """Put ``wrapper`` where ``original`` was, including the copies that
    ``from module import name`` left in the program's other modules."""
    setattr(owner, name, wrapper)
    if isinstance(owner, type):
        return
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", {})
        if namespace.get(name) is original and module.__name__.startswith("repro"):
            setattr(module, name, wrapper)


def _check_coverage() -> None:
    """Fail when a registry predictor or a prefetcher class goes untimed."""
    from repro.core.config import ApproximatorConfig
    from repro.predictors import registry
    from repro.prefetch.base import Prefetcher

    classes = {
        type(registry.create(name, ApproximatorConfig()))
        for name in registry.available_predictors()
    }
    pending = list(Prefetcher.__subclasses__())
    while pending:
        cls = pending.pop()
        classes.add(cls)
        pending.extend(cls.__subclasses__())
    untimed = sorted(cls.__qualname__ for cls in classes if not hasattr(cls.on_miss, "__wrapped__"))
    if untimed:
        raise RuntimeError(f"no timer on the on_miss of {', '.join(untimed)}")


def install(out_dir: Path, counts_only: bool = False) -> Recorder:
    """Instrument the program in this process (see the module docstring)."""
    from repro.core.approximator import LoadValueApproximator
    from repro.experiments import runner  # noqa: F401  (imports every driver)

    recorder = Recorder(out_dir)
    recorder.lva_type = LoadValueApproximator
    hooks = [("repro.sim.tracesim", "TraceSimulator.finish", recorder.on_finish)]
    if counts_only:
        hooks.append(("repro.fullsystem.system", "FullSystemSimulator.run", recorder.on_replay))
    else:
        after: Dict[str, After] = {
            KEYS["FullSystemSimulator.run"]: recorder.on_replay,
            KEYS["Trace.pack"]: recorder.on_pack,
            KEYS["DiskCache.get"]: recorder.hit_counter("diskcache_hits"),
            KEYS["TraceStore.get"]: recorder.hit_counter("tracestore_hits"),
            KEYS["SweepEngine.execute"]: recorder.on_sweep,
        }
        for layer, module, qualname in TIMED:
            owner, name, original = _resolve(module, qualname)
            key = KEYS[qualname]
            wrapper = recorder.wrap(
                original, key, layer, point=name in POINT_FUNCTIONS, after=after.get(key)
            )
            _replace(owner, name, original, wrapper)
        _check_coverage()
        recorder.calibrate()
    for module, qualname, hook in hooks:
        owner, name, original = _resolve(module, qualname)
        _replace(owner, name, original, _hooked(original, hook))
    mp_util.register_after_fork(recorder, Recorder._after_fork)
    return recorder


def cold_ops(dumps: Sequence[dict]) -> int:
    """Simulated memory operations: live phase-1 loads and stores plus
    replayed full-system events."""
    return sum(
        dump["counts"].get("frontend_ops", 0) + dump["counts"].get("fullsystem_events", 0)
        for dump in dumps
    )


def summarize(cold: Sequence[dict], warm: Sequence[dict]) -> Tuple[Dict[str, float], List[str]]:
    """The per-layer metrics of one traced cold and one warm invocation.

    ``sweep.*`` describe the cold invocation, where the engine computes
    every point; the other metrics add both invocations up. Also returns
    the accounting problems found, one per process whose layer self
    times, timer cost and unattributed time do not add up to its wall.
    """
    dumps = list(cold) + list(warm)
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    nested: Counter = Counter()
    counts: Counter = Counter()
    self_ns: Counter = Counter()
    unattributed = wall = 0.0
    problems: List[str] = []
    for dump in dumps:
        for key, (n, total, _child, child_calls) in dump["slots"].items():
            calls[key] += n
            inclusive[key] += total
            nested[key] += child_calls
        counts.update(dump["counts"])
        account = measure.process_accounting(dump)
        problems += [
            f"process {dump['pid']} ({dump['role']}): {problem}"
            for problem in measure.accounting_problems(account)
        ]
        self_ns.update(account["layers"])
        unattributed += account["unattributed_ns"]
        wall += account["wall_ns"]

    def seconds(qualname: str) -> float:
        return inclusive[KEYS[qualname]] / 1e9

    def called(*qualnames: str) -> int:
        return sum(calls[KEYS[qualname]] for qualname in qualnames)

    def self_s(layer: str) -> float:
        return self_ns[layer] / 1e9

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    trains = called(*(q for _, _, q in TIMED if q.endswith(".train")))
    # The hybrid trains its LVA and LVP halves itself: count its calls once.
    trains -= nested[KEYS["HybridPredictor.train"]]
    sweeps = [sweep for dump in cold for sweep in dump["sweeps"]]
    points = [ns / 1e9 for dump in cold for ns in dump["points_ns"]]
    p90 = measure.tail_percentile(points, 90)
    busy = sum(sweep["jobs"] * sweep["engine_ns"] for sweep in sweeps) / 1e9
    main = next(dump for dump in cold if dump["role"] == "main")
    metrics = {
        "workloads.runs": called("Workload.execute"),
        "workloads.self_s": self_s("workloads"),
        "frontend.ops": counts["frontend_ops"],
        "frontend.self_s": self_s("frontend"),
        "frontend.ns_per_op": share(self_ns["frontend"], counts["frontend_ops"]),
        "mem.probes": counts["cache_probes"],
        "mem.fills": counts["cache_fills"],
        "mem.l1_miss_ratio": share(counts["l1_misses"], counts["l1_accesses"]),
        "mem.self_s": self_s("mem"),
        "approx.lookups": counts["approx_lookups"],
        "approx.trains": trains,
        "approx.coverage": share(counts["approx_covered"], counts["approx_lookups"]),
        "approx.stale_share": share(counts["lva_stale"], counts["lva_trainings"]),
        "approx.self_s": self_s("approx"),
        "prefetch.calls": counts["prefetch_triggers"],
        "prefetch.useful_share": share(counts["prefetch_useful"], counts["prefetch_fetches"]),
        "prefetch.self_s": self_s("prefetch"),
        "capture.runs": counts["capture_runs"],
        "capture.events": counts["capture_events"],
        "capture.s": seconds("capture_trace"),
        "capture.pack_s": seconds("Trace.pack"),
        "fullsystem.replays": counts["fullsystem_replays"],
        "fullsystem.events": counts["fullsystem_events"],
        "fullsystem.events_per_s": share(
            counts["fullsystem_events"], seconds("FullSystemSimulator.run")
        ),
        "fullsystem.self_s": self_s("fullsystem"),
        "noc.sends": called("MeshNetwork.send"),
        "noc.self_s": self_s("noc"),
        "noc.detailed_s": seconds("DetailedMeshNetwork.run"),
        "cpu.calls": called("CoreTimingModel.advance", "CoreTimingModel.issue_load"),
        "cpu.self_s": self_s("cpu"),
        "diskcache.gets": called("DiskCache.get"),
        "diskcache.hits": counts["diskcache_hits"],
        "diskcache.puts": called("DiskCache.put"),
        "diskcache.get_s": seconds("DiskCache.get"),
        "diskcache.put_s": seconds("DiskCache.put"),
        "tracestore.gets": called("TraceStore.get"),
        "tracestore.hits": counts["tracestore_hits"],
        "tracestore.puts": called("TraceStore.put"),
        "tracestore.get_s": seconds("TraceStore.get"),
        "tracestore.put_s": seconds("TraceStore.put"),
        "sweep.requested_points": sum(sweep["requested"] for sweep in sweeps),
        "sweep.unique_points": sum(sweep["unique"] for sweep in sweeps),
        "sweep.duplicate_points": sum(sweep["duplicates"] for sweep in sweeps),
        "sweep.engine_s": sum(sweep["engine_ns"] for sweep in sweeps) / 1e9,
        "sweep.point_s.count": len(points),
        "sweep.point_s.p50": measure.percentile(points, 50) if points else 0.0,
        # 0 when fewer than ten points lie beyond the 90th percentile.
        "sweep.point_s.p90": p90 if p90 is not None else 0.0,
        "sweep.point_s.max": max(points, default=0.0),
        "sweep.pool_idle_s": busy - sum(points) if sweeps else 0.0,
        "render.tables": called("Driver.render"),
        "render.s": self_s("render"),
        "points.self_s": self_s("points"),
        "trace.unattributed_share": share(unattributed, wall),
        "trace.timer_ns_per_call": main["timer_in_ns"] + main["timer_out_ns"],
        "trace.cold_ops": cold_ops(cold),
    }
    return metrics, problems
