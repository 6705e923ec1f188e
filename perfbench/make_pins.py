#!/usr/bin/env python3
"""Regenerate the pins that every benchmark run is checked against.

    python3 perfbench/make_pins.py                       # every workload, seeds 0..9
    python3 perfbench/make_pins.py --workload phase2-small --seeds 10

For each workload and workload seed, one cold invocation of the
experiments CLI runs under ``traced_cli.py --counts-only`` against an
empty cache. The pin keeps the tables it rendered, the operations it
simulated (live phase-1 loads and stores plus replayed full-system
events), the results and traces it stored, and the number of sweep
points the workload declares. Where a pin already exists, the cells that
differ are printed per seed first: an unexpected difference is a change
in the simulated results, not in the benchmark.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

#: Seconds one pin may take (a full-scale cold run takes about 25).
PIN_LIMIT_S = 600.0


def pin_seed(spec: dict, seed: int, work: Path, declared: set) -> dict:
    """The pin of one workload seed, from one cold counted invocation."""
    cache = work / f"cache-{seed}"
    spans = work / f"spans-{seed}"
    spans.mkdir()
    tables = work / f"tables-{seed}.json"
    deadline = time.monotonic() + PIN_LIMIT_S
    env = run.clean_env(declared, cache)
    setup = run.invoke(run.setup_argv(spec, seed), env, work / "setup.txt", deadline, "setup")
    cold = run.invoke(
        run.cli_argv(spec, seed, tables, spans, counts_only=True),
        env, work / "cold.txt", deadline, "cold",
    )
    for inv in (setup, cold):
        if inv.exit_code != 0 or inv.timed_out:
            raise SystemExit(f"seed {seed}: {inv.label} failed:\n{inv.output[-2000:]}")
    results, traces = run.entry_counts(run.cache_entries(cache))
    shutil.rmtree(cache)
    return {
        "declared_points": int(setup.output.split()[-1]),
        "ops": tracer.cold_ops(run.load_dumps(spans)),
        "disk_entries": results,
        "trace_entries": traces,
        "tables": [measure.table_grid(result) for result in json.loads(tables.read_text())],
    }


def render(name: str, spec: dict, pins: dict) -> str:
    """The pin file: one line per seed's counts and per table."""
    blocks = []
    for seed, pin in pins.items():
        head = json.dumps({key: value for key, value in pin.items() if key != "tables"})
        tables = ",\n".join("   " + json.dumps(grid) for grid in pin["tables"])
        blocks.append(f'  "{seed}": {head[:-1]}, "tables": [\n{tables}\n  ]}}')
    return (
        "{\n"
        f' "workload": {json.dumps(name)},\n'
        f' "experiments": {json.dumps(spec["experiments"])},\n'
        ' "seeds": {\n' + ",\n".join(blocks) + "\n }\n}\n"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the benchmark's pins.")
    parser.add_argument("--workload", action="append", choices=sorted(run.SPEC["workloads"]))
    parser.add_argument("--seeds", type=int, default=10, help="pin workload seeds 0..N-1")
    args = parser.parse_args(argv)
    declared = run.declared_env()
    run.WORK.mkdir(exist_ok=True)
    for name in args.workload or sorted(run.SPEC["workloads"]):
        spec = run.SPEC["workloads"][name]
        path = run.HERE / "pins" / f"{name}.json"
        old = json.loads(path.read_text())["seeds"] if path.exists() else {}
        work = Path(tempfile.mkdtemp(prefix=f"pins-{name}-", dir=run.WORK))
        pins = {}
        try:
            for seed in range(args.seeds):
                pin = pins[str(seed)] = pin_seed(spec, seed, work, declared)
                before = old.get(str(seed))
                if before is None:
                    print(f"{name} seed {seed}: new pin, {pin['ops']} operations", flush=True)
                    continue
                differing, total = measure.compare_tables(before["tables"], pin["tables"])
                changed = [key for key in pin if key != "tables" and before.get(key) != pin[key]]
                print(
                    f"{name} seed {seed}: {differing} of {total} cells differ from the old pin"
                    + (f"; changed: {', '.join(changed)}" if changed else ""),
                    flush=True,
                )
        finally:
            shutil.rmtree(work, ignore_errors=True)
        path.parent.mkdir(exist_ok=True)
        path.write_text(render(name, spec, pins))
        reread = json.loads(path.read_text())["seeds"]
        assert all(
            measure.compare_tables(pins[seed]["tables"], reread[seed]["tables"])[0] == 0
            for seed in pins
        ), f"{path} does not read back as written"
    return 0


if __name__ == "__main__":
    sys.exit(main())
