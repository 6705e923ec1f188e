#!/usr/bin/env python3
"""The repository's benchmark: the time it takes to regenerate the evaluation.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload phase1-small --seed 0 --seconds 50 --trace 0

``--trace 0`` measures untraced runs. It first times set-up (a fresh
interpreter imports the experiments runner and declares the workload's
sweep points), then, while ``--seconds`` allow, one cold
``python -m repro.experiments`` invocation against an empty cache
directory followed by warm invocations against the cache it filled. The
last line of the output is one JSON object with the end-to-end metrics.

``--trace 1`` runs one untraced cold invocation, then a cold and a warm
invocation under ``traced_cli.py``, which times the calls into each layer,
and ends with the per-layer metrics.

Every invocation's tables are compared cell by cell with the pins in
``perfbench/pins``, and every invocation must keep the cold/warm rules;
an invocation that breaks them is counted as failed and is not timed.
``perfbench/README.md`` describes the workloads, the metrics and the seeds.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
#: Scratch space of every run (caches, outputs, span dumps, results).
WORK = REPO / ".perfbench-work"
#: A run starts no invocation after this many seconds and stops one still
#: running, so that it exits within the 180 seconds it is allowed.
RUN_LIMIT_S = 165.0
#: What every invocation pays before its first simulation.
SETUP_CODE = (
    "import sys\n"
    "from repro.experiments import runner\n"
    "names, small, seed = sys.argv[1].split(','), sys.argv[2] == '1', int(sys.argv[3])\n"
    "print(len(runner.gather_points(names, small, seed, 1)))\n"
)


@dataclass
class Invocation:
    """One finished child process and what it cost."""

    label: str
    exit_code: int
    wall_s: float
    #: User plus system time of the process and the workers it waited for.
    cpu_s: float
    #: Largest resident set of the process or of any of those workers, MiB.
    peak_rss_mb: float
    output: str
    timed_out: bool


def invoke(argv: Sequence[str], env: Dict[str, str], out: Path, deadline: float,
           label: str) -> Invocation:
    """Run ``argv`` from the repository root in its own process group and
    wait for it; the group is stopped at ``deadline`` (monotonic clock)."""
    timed_out = threading.Event()

    def expire() -> None:
        timed_out.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    with open(out, "wb") as sink:
        started = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), cwd=REPO, env=env, stdout=sink, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), expire)
        timer.start()
        try:
            # wait4 reports the usage of the child and of every descendant
            # it waited for: the sweep's pool workers.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        label=label,
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        output=out.read_text(encoding="utf-8", errors="replace"),
        timed_out=timed_out.is_set(),
    )


def declared_env() -> Set[str]:
    """Every environment variable the program declares in ``repro.envspec``."""
    path = REPO / "src" / "repro" / "envspec.py"
    spec = importlib.util.spec_from_file_location("_perfbench_envspec", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return {var.name for var in module.all_vars()}


def clean_env(declared: Set[str], cache_dir: Path) -> Dict[str, str]:
    """This process's environment without any declared variable, pointed
    at the checkout's sources and at ``cache_dir`` for results."""
    env = {name: value for name, value in os.environ.items() if name not in declared}
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def cli_argv(spec: dict, seed: int, json_path: Path, spans: Optional[Path] = None,
             counts_only: bool = False) -> List[str]:
    """One invocation of the experiments CLI; with ``spans``, under the
    layer timers of ``traced_cli.py``, which write their dumps there."""
    args = list(spec["experiments"])
    if spec["small"]:
        args.append("--small")
    args += ["--jobs", str(spec["jobs"]), "--seed", str(seed), "--json", str(json_path)]
    if spans is None:
        return [sys.executable, "-m", "repro.experiments", *args]
    helper = [sys.executable, str(HERE / "traced_cli.py"), "--out", str(spans)]
    if counts_only:
        helper.append("--counts-only")
    return helper + ["--", *args]


def setup_argv(spec: dict, seed: int) -> List[str]:
    return [
        sys.executable, "-c", SETUP_CODE,
        ",".join(spec["experiments"]), "1" if spec["small"] else "0", str(seed),
    ]


def cache_entries(cache_dir: Path) -> Dict[str, Tuple[int, int, int]]:
    """(inode, size, mtime) of every file in a cache directory except the
    run journals, which every sweep rewrites."""
    entries: Dict[str, Tuple[int, int, int]] = {}
    if not cache_dir.is_dir():
        return entries
    for path in cache_dir.rglob("*"):
        relative = path.relative_to(cache_dir)
        if relative.parts[0] == "journals" or not path.is_file():
            continue
        stat = path.stat()
        entries[relative.as_posix()] = (stat.st_ino, stat.st_size, stat.st_mtime_ns)
    return entries


def entry_counts(entries: Dict[str, Tuple[int, int, int]]) -> Tuple[int, int]:
    """(stored results, stored traces) among ``cache_entries``."""
    results = sum(1 for name in entries if name.endswith(".pkl") and not name.startswith("traces/"))
    traces = sum(1 for name in entries if name.startswith("traces/") and name.endswith("/meta.json"))
    return results, traces


def load_dumps(spans: Path) -> List[dict]:
    return [json.loads(path.read_text(encoding="utf-8")) for path in sorted(spans.glob("*.json"))]


def git_revision() -> Optional[str]:
    """The checked-out commit, read from ``.git`` (None outside a clone)."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload_seed: int) -> Dict[str, object]:
    try:
        numpy_version: Optional[str] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git": git_revision(),
        "workload_seed": workload_seed,
    }


class Session:
    """The invocations of one run, their checks and their tallies."""

    def __init__(self, spec: dict, pin: dict, seed: int, run_dir: Path, deadline: float) -> None:
        self.spec = spec
        self.pin = pin
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.declared = declared_env()
        self.attempted = 0
        self.failed = 0
        self.differing = 0
        self.cells = 0
        self.problems: List[str] = []

    def invoke(self, argv: Sequence[str], cache_dir: Path, label: str) -> Invocation:
        env = clean_env(self.declared, cache_dir)
        return invoke(argv, env, self.run_dir / f"{label}.txt", self.deadline, label)

    def _tally(self, inv: Invocation, problems: List[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{inv.label}: {problem}" for problem in problems]
        return not problems

    def check(self, inv: Invocation, cold: bool, cache_dir: Path, json_path: Path,
              before: Optional[dict] = None) -> bool:
        """Apply the cold or warm rules and compare the tables with the pin."""
        problems: List[str] = []
        if inv.timed_out:
            problems.append("stopped at the run's time limit")
        elif inv.exit_code != 0:
            problems.append(f"exited with {inv.exit_code}: {inv.output[-400:]!r}")
        if self.spec["jobs"] > 1:
            try:
                sweep = measure.parse_sweep_line(inv.output)
            except ValueError as exc:
                sweep = None
                problems.append(str(exc))
            if sweep is None:
                problems.append("printed no sweep: summary")
            elif cold:
                problems += measure.cold_sweep_problems(sweep, self.pin["trace_entries"])
            else:
                problems += measure.warm_sweep_problems(sweep)
        entries = cache_entries(cache_dir)
        if cold:
            stored = entry_counts(entries)
            pinned = (self.pin["disk_entries"], self.pin["trace_entries"])
            if stored != pinned:
                problems.append(f"cold run stored (results, traces) {stored}, pinned {pinned}")
        elif entries != before:
            problems.append("warm run changed the cache")
        try:
            rendered = json.loads(json_path.read_text(encoding="utf-8"))
            grids = [measure.table_grid(result) for result in rendered]
        except (OSError, ValueError, KeyError, TypeError):
            grids = []
            problems.append("wrote no readable --json tables")
        differing, total = measure.compare_tables(self.pin["tables"], grids)
        self.differing += differing
        self.cells += total
        if differing:
            problems.append(f"{differing} of {total} table cells differ from the pin")
        return self._tally(inv, problems)

    def cold_warm(self, tag: str, warm_runs: int, spans: Optional[Path] = None):
        """One cold invocation and ``warm_runs`` warm ones on a fresh cache.

        Returns the cold invocation (None when it broke a rule) and the
        valid warm ones.
        """
        cache = self.run_dir / f"cache-{tag}"
        cold_json = self.run_dir / f"cold-{tag}.json"
        cold_spans = warm_spans = None
        if spans is not None:
            cold_spans, warm_spans = spans / "cold", spans / "warm"
            cold_spans.mkdir(parents=True)
            warm_spans.mkdir(parents=True)
        cold = self.invoke(
            cli_argv(self.spec, self.seed, cold_json, cold_spans), cache, f"cold-{tag}"
        )
        warms: List[Invocation] = []
        if self.check(cold, True, cache, cold_json):
            before = cache_entries(cache)
            for index in range(warm_runs):
                label = f"warm-{tag}-{index}"
                warm_json = self.run_dir / f"{label}.json"
                warm = self.invoke(
                    cli_argv(self.spec, self.seed, warm_json, warm_spans), cache, label
                )
                if self.check(warm, False, cache, warm_json, before):
                    warms.append(warm)
        else:
            cold = None
        shutil.rmtree(cache, ignore_errors=True)
        return cold, warms

    def setup_times(self) -> List[float]:
        """Set-up wall times. The first run is not timed: it compiles the
        bytecode and fills the page cache, as any earlier use has."""
        times: List[float] = []
        for index in range(1 + SPEC["setup_repeats"]):
            inv = self.invoke(
                setup_argv(self.spec, self.seed), self.run_dir / "cache-setup", f"setup-{index}"
            )
            declared = inv.output.split()[-1:] == [str(self.pin["declared_points"])]
            problems = []
            if inv.exit_code != 0 or inv.timed_out or not declared:
                problems.append(f"set-up failed or declared other points: {inv.output[-400:]!r}")
            if not self._tally(inv, problems):
                break
            if index:
                times.append(inv.wall_s)
        return times

    def timed(self, seconds: float) -> Optional[Dict[str, float]]:
        """The end-to-end metrics (None when nothing valid was measured)."""
        setup = self.setup_times()
        if not setup:
            return None
        colds: List[Invocation] = []
        warms: List[Invocation] = []
        started = time.monotonic()
        pair = 0
        while True:
            pair_started = time.monotonic()
            cold, warm = self.cold_warm(str(pair), self.spec["warm_repeats"])
            pair += 1
            if cold is None:
                break
            colds.append(cold)
            warms.extend(warm)
            now = time.monotonic()
            last = now - pair_started
            if now - started + last > seconds or now + last > self.deadline:
                break
        if not (colds and warms):
            return None
        wall = statistics.median(inv.wall_s for inv in colds)
        return {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "cpu_s": statistics.median(inv.cpu_s for inv in colds),
            "warm_wall_s": statistics.median(inv.wall_s for inv in warms),
            "peak_rss_mb": statistics.median(inv.peak_rss_mb for inv in colds),
            "sim_ops_per_s": self.pin["ops"] / wall,
            "match_share": 1.0 - self.differing / self.cells,
        }

    def traced(self) -> Optional[Dict[str, float]]:
        """The per-layer metrics (None when nothing valid was measured)."""
        reference, _ = self.cold_warm("untraced", 0)
        spans = self.run_dir / "spans"
        cold, warms = self.cold_warm("traced", 1, spans)
        if reference is None or cold is None or not warms:
            return None
        metrics, problems = tracer.summarize(
            load_dumps(spans / "cold"), load_dumps(spans / "warm")
        )
        if metrics["trace.cold_ops"] != self.pin["ops"]:
            problems.append(
                f"the cold run simulated {metrics['trace.cold_ops']} operations, "
                f"pinned {self.pin['ops']}"
            )
        self.problems += problems
        metrics["trace.overhead"] = cold.wall_s / reference.wall_s
        return metrics


def pin_for(workload: str, seed: int) -> Tuple[int, dict]:
    """The pinned workload seed a benchmark seed selects, and its pin."""
    pins = json.loads((HERE / "pins" / f"{workload}.json").read_text(encoding="utf-8"))
    seeds = sorted(int(key) for key in pins["seeds"])
    workload_seed = seeds[seed % len(seeds)]
    return workload_seed, pins["seeds"][str(workload_seed)]


def result_line(declared: Sequence[dict], metrics: Dict[str, float], session: Session,
                correct: bool) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": max(1, session.attempted),
            "failed": session.failed,
            "metrics": {
                metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
                for metric in declared
            },
        }
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Time regenerating the evaluation.")
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument(
        "--seed", type=int, default=SPEC["default_seed"],
        help="runs workload seed SEED mod the number of pinned seeds",
    )
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (REPO / "src" / "repro" / "experiments" / "runner.py").is_file():
        print(f"perfbench: no program to measure under {REPO / 'src'}", file=sys.stderr)
        return 2

    spec = SPEC["workloads"][args.workload]
    workload_seed, pin = pin_for(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    session = Session(spec, pin, workload_seed, run_dir, started + RUN_LIMIT_S)
    try:
        if args.trace:
            metrics = session.traced()
            declared = BENCHMARK["per_layer"]
        else:
            metrics = session.timed(args.seconds)
            declared = BENCHMARK["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = environment(workload_seed)
    print(
        f"perfbench {args.workload}: seed {args.seed} runs workload seed {workload_seed}; "
        f"{session.attempted} invocations, {session.failed} failed"
    )
    print(f"failed_share: {session.differing} of {session.cells} table cells differ from the pins")
    for problem in session.problems:
        print(f"problem: {problem}")
    if metrics is not None:
        for metric in declared:
            print(f"{metric['name']:28s} {metrics[metric['name']]:18.6f} {metric['unit']}")
    print(f"env: {json.dumps(env)}")
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    record = {"args": vars(args), "env": env, "metrics": metrics, "problems": session.problems}
    (results / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    if metrics is None:
        print(result_line(declared, {metric["name"]: 0 for metric in declared}, session, False))
        return 1
    correct = not session.problems and not session.failed
    print(result_line(declared, metrics, session, correct))
    return 0


if __name__ == "__main__":
    sys.exit(main())
