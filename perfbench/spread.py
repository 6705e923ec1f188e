#!/usr/bin/env python3
"""Run the benchmark once per seed and print each end-to-end metric's
median and quartile spread against its bound.

    python3 perfbench/spread.py --workload phase2-small --runs 10

The spread is the distance between the first and third quartile of the
runs' values as a share of their median (``measure.quartile_spread``).
A steady benchmark keeps it below a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402


def main(argv=None) -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="Quartile spread of the end-to-end metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    values = {metric["name"]: [] for metric in benchmark["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
        ]
        done = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode or not result["correct"]:
            print(done.stdout[-3000:], done.stderr[-3000:], file=sys.stderr)
            return 1
        for name, series in values.items():
            series.append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
    for metric in benchmark["end_to_end"]:
        series = values[metric["name"]]
        spread = measure.quartile_spread(series) if len(series) > 1 else 0.0
        print(
            f"{metric['name']:14s} median {statistics.median(series):14.6g} {metric['unit']:6s} "
            f"spread {spread:7.4f}  bound {metric['bound']:5.2f}  "
            f"spread/bound {spread / metric['bound']:5.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
