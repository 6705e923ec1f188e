"""Run the experiments CLI with the benchmark's layer timers installed.

    python3 perfbench/traced_cli.py --out DIR [--counts-only] -- <experiments CLI arguments>

Every process of the run writes its span totals and counts to
``DIR/<pid>.json`` (see ``tracer.py``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="experiments CLI under layer timers")
    parser.add_argument("--out", required=True, type=Path, help="directory for the dumps")
    parser.add_argument(
        "--counts-only", action="store_true", help="keep the stats counts, time nothing"
    )
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="-- then the CLI's arguments")
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    recorder = tracer.install(args.out, counts_only=args.counts_only)
    from repro.experiments import runner

    recorder.start()
    try:
        return runner.main(cli)
    finally:
        recorder.dump()


if __name__ == "__main__":
    sys.exit(main())
