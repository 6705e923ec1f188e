"""Command-line entry point: regenerate any (or every) table/figure.

Usage::

    python -m repro.experiments                 # everything, full scale
    python -m repro.experiments fig4 fig5       # selected experiments
    python -m repro.experiments --small         # reduced inputs (quick check)
    python -m repro.experiments --list          # show available experiments
    python -m repro.experiments --jobs 4        # point-level parallel sweep
    python -m repro.experiments fig6 --json out.json --markdown out.md
    python -m repro.experiments --jobs 4 --retries 2 --point-timeout 300
    python -m repro.experiments fig13 --inject "crash:mantissa_drop_bits=11"

With ``--jobs N`` the runner first collects every sweep point the
requested experiments declare (via their drivers' ``points()``, which
runs each render once with every result a placeholder), dedupes
them across experiments, and executes them on the
:class:`~repro.experiments.sweep.SweepEngine` — precise baselines exactly
once, then the technique points, all at point granularity.  The drivers
then re-run serially in the parent against warm caches, so tables print
in a deterministic order no matter how the points were scheduled.
Full-system experiments decompose into replay points too: the engine
pre-captures each needed trace once into the shared trace store, then
fans the replays out; workers memory-map the stored columns.  The few
experiments that cannot be decomposed into points still run whole in
worker processes, unless their finished tables are already on disk.
Whatever is already cached is served in the parent, so a fully cached
run starts no worker process, and rerunning an interrupted command
recomputes only what it had not stored yet.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional

from repro import faults, telemetry
from repro.errors import ConfigurationError
from repro.telemetry.profiling import Profiler, profile_to_text
from repro.experiments import (
    ablations,
    diskcache,
    fault_ablation,
    fig1,
    noc_calibration,
    sensitivity,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig_predictors,
    table1,
    table2,
)
from repro.experiments.common import Driver, ExperimentResult, SweepPoint, averaged
from repro.experiments.expectations import verify
from repro.experiments.report import render_report, to_json
from repro.experiments.sweep import SweepEngine

#: Every experiment, keyed by CLI name, as a
#: :class:`~repro.experiments.common.Driver`.
DRIVERS: Dict[str, Driver] = {
    "table1": table1.DRIVER,
    "fig1": fig1.DRIVER,
    "table2": table2.DRIVER,
    "fig4": fig4.DRIVER,
    "fig5": fig5.DRIVER,
    "fig6": fig6.DRIVER,
    "fig7": fig7.DRIVER,
    "fig8": fig8.DRIVER,
    "fig9": fig9.DRIVER,
    "fig10": fig10.DRIVER,
    "fig11": fig11.DRIVER,
    "fig12": fig12.DRIVER,
    "fig13": fig13.DRIVER,
    "fig_predictors": fig_predictors.DRIVER,
    **ablations.DRIVERS,
    "ablate-noc-model": noc_calibration.DRIVER,
    "ablate-sensitivity": sensitivity.DRIVER,
    "ablate-memory-faults": fault_ablation.DRIVER,
}

#: Experiments decomposable into sweep points, which their drivers
#: declare by dry-running their renders. The rest (Table II and the NoC
#: calibration, ``swept=False``) declare no points and run whole.
POINTS: Dict[str, Callable[..., List[SweepPoint]]] = {
    name: driver.points for name, driver in DRIVERS.items() if driver.swept
}


def gather_points(names, small: bool, seed: int, repeats: int) -> List[SweepPoint]:
    """Collect the sweep points for every swept experiment in ``names``.

    ``--repeats N`` averages over seeds ``seed .. seed+N-1`` (matching
    :func:`repro.experiments.common.averaged`), so each of those seeds
    contributes its own points.
    """
    points: List[SweepPoint] = []
    for name in names:
        declare = POINTS.get(name)
        if declare is None:
            continue
        for offset in range(max(1, repeats)):
            points.extend(declare(small=small, seed=seed + offset))
    return points


def _experiment_key(name: str, repeats: int, small: bool, seed: int) -> str:
    return diskcache.point_key(
        "experiment", name=name, repeats=repeats, small=small, seed=seed
    )


def _stored_experiment(
    name: str, repeats: int, small: bool, seed: int
) -> Optional[ExperimentResult]:
    """The disk-cached table of an unswept experiment, or None."""
    disk = diskcache.active_cache()
    if disk is None:
        return None
    stored = disk.get(_experiment_key(name, repeats, small, seed))
    return stored if isinstance(stored, ExperimentResult) else None


def _run_one(
    name: str,
    repeats: int,
    small: bool,
    seed: int,
    profile: bool = False,
    profiler: Optional[Profiler] = None,
):
    """Worker entry point: run one experiment (possibly seed-averaged).

    Unswept experiments (Table II and the NoC calibration, which declare
    no points) are cached whole on disk: their cost lives outside the
    point-level caches, but they are just as deterministic, so their
    finished tables can be served from the same disk layer. Profiled
    runs bypass the cache — a profile of a disk read is not what
    ``--profile`` asks for.

    ``profiler`` (parent-process, in-serial runs only — it is not
    picklable) records a component frame per experiment for the
    ``--profile-out`` speedscope export.
    """
    started = time.monotonic()
    cached = name not in POINTS and not profile
    if cached:
        stored = _stored_experiment(name, repeats, small, seed)
        if stored is not None:
            return name, stored, time.monotonic() - started, None

    def compute() -> ExperimentResult:
        if repeats > 1:
            return averaged(DRIVERS[name].render, repeats=repeats, small=small, seed=seed)
        return DRIVERS[name].render(small=small, seed=seed)

    profile_text: Optional[str] = None
    if profile:
        result, profile_text = profile_to_text(compute, limit=20)
    else:
        frame = (
            profiler.frame(f"experiment:{name}")
            if profiler is not None
            else nullcontext()
        )
        with frame:
            result = compute()
    disk = diskcache.active_cache() if cached else None
    if disk is not None:
        disk.put(_experiment_key(name, repeats, small, seed), result)
    return name, result, time.monotonic() - started, profile_text


def _execute(names, args, profiler: Optional[Profiler] = None):
    """Yield (name, result, elapsed, profile) per experiment, honouring --jobs.

    Swept experiments run serially in the parent — after a sweep their
    drivers only read warm caches, so parallelising them again would buy
    nothing.  An unswept experiment whose table is on disk is served in
    the parent too; the rest go to worker processes, and the pool starts
    only if there are any.  Completions are collected with
    :func:`as_completed` and buffered, then yielded in the requested
    order, so a slow first experiment no longer delays *collecting* (and
    error-reporting) the others, only their printing.
    """
    if args.jobs <= 1 or len(names) == 1:
        for name in names:
            yield _run_one(
                name, args.repeats, args.small, args.seed, args.profile, profiler
            )
        return

    completed: Dict[int, tuple] = {}
    misses: List[int] = []
    for i, name in enumerate(names):
        if name in POINTS:
            continue
        started = time.monotonic()
        stored = (
            None
            if args.profile
            else _stored_experiment(name, args.repeats, args.small, args.seed)
        )
        if stored is None:
            misses.append(i)
        else:
            completed[i] = (name, stored, time.monotonic() - started, None)
    pool = ProcessPoolExecutor(max_workers=args.jobs) if misses else nullcontext()
    with pool:
        futures = {
            pool.submit(
                _run_one, names[i], args.repeats, args.small, args.seed, args.profile
            ): i
            for i in misses
        }
        for i, name in enumerate(names):
            if name in POINTS:
                completed[i] = _run_one(
                    name, args.repeats, args.small, args.seed, args.profile, profiler
                )
        next_index = 0
        while next_index < len(names) and next_index in completed:
            yield completed.pop(next_index)
            next_index += 1
        for future in as_completed(futures):
            completed[futures[future]] = future.result()
            while next_index < len(names) and next_index in completed:
                yield completed.pop(next_index)
                next_index += 1


def main(argv=None) -> int:
    """Run the requested experiments and print their tables."""
    parser = argparse.ArgumentParser(
        description="Reproduce the tables and figures of Load Value Approximation"
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=[],
        help=f"which to run (default: all). Known: {', '.join(DRIVERS)}",
    )
    parser.add_argument(
        "--small", action="store_true", help="reduced inputs for a quick check"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument("--json", metavar="PATH", help="also write results as JSON")
    parser.add_argument(
        "--markdown", metavar="PATH", help="also write results as a Markdown report"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        metavar="N",
        help="average each experiment over N seeds (the paper uses 5)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="check each result against the paper's qualitative expectations",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run sweep points (and unswept experiments) in N worker processes",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile each experiment, printing its top-20 cumulative hotspots",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache for this run (and its workers)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry each failed sweep point up to N times (exponential backoff)",
    )
    parser.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abandon any single sweep point attempt after SECONDS",
    )
    parser.add_argument(
        "--inject",
        metavar="SPEC",
        default=None,
        help="fault-injection spec, e.g. 'crash:workload=canneal' or "
        "'flip:prob=0.001' (see docs/robustness.md)",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="enable the metrics registry and sim telemetry hooks",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL telemetry trace to PATH (implies --telemetry; "
        "summarize it with lva-trace)",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help="write a speedscope (flamegraph) JSON profile of this run to PATH",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in DRIVERS:
            print(name)
        return 0

    if args.no_cache:
        diskcache.disable()
    if args.trace or args.telemetry:
        telemetry.configure(on=True, trace=args.trace)
    if args.inject:
        try:
            faults.activate(args.inject)
        except ConfigurationError as exc:
            parser.error(f"--inject: {exc}")

    names = args.experiments or list(DRIVERS)
    unknown = [n for n in names if n not in DRIVERS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")

    profiler = Profiler("lva-experiments") if args.profile_out else None

    engine_requested = (
        args.jobs > 1 or args.retries > 0 or args.point_timeout is not None
    )
    if engine_requested:
        points = gather_points(names, args.small, args.seed, args.repeats)
        if points:
            engine = SweepEngine(
                jobs=args.jobs,
                retries=args.retries,
                point_timeout=args.point_timeout,
                jitter_seed=args.seed,
            )
            try:
                sweep_frame = (
                    profiler.frame("sweep") if profiler is not None else nullcontext()
                )
                with sweep_frame:
                    report = engine.execute(points)
            except KeyboardInterrupt:
                print(
                    "\nsweep interrupted; rerun the same command to continue "
                    "(it does not recompute the points already stored)",
                    file=sys.stderr,
                )
                return 130
            print(report.summary())
            for failure in report.failures:
                print(f"  FAILED {failure.describe()}", file=sys.stderr)
            print()

    results = []
    failures = 0
    for name, result, elapsed, profile_text in _execute(names, args, profiler):
        results.append(result)
        print(result.format_table())
        if profile_text:
            print(f"--- profile: {name} (top 20 by cumulative time) ---")
            print(profile_text)
        if args.verify:
            report = verify(name, result)
            print(report.format())
            failures += len(report.failed)
        print(f"[{name} completed in {elapsed:.1f}s]\n")

    if args.json:
        payload = "[\n" + ",\n".join(to_json(r) for r in results) + "\n]\n"
        with open(args.json, "w") as handle:
            handle.write(payload)
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write(render_report(results, title="Load Value Approximation — measured results"))
    if profiler is not None:
        out = profiler.write_speedscope(args.profile_out)
        print(f"[speedscope profile written to {out}]")
    if args.trace:
        telemetry.shutdown()
        print(f"[telemetry trace written to {args.trace}]")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
