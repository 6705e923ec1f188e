"""Regenerate the full-scale workload stream pin and print what changed.

``tests/workloads/expected/full_scale_streams.json`` pins every workload's
live operation stream at full scale (the evaluation inputs, not
``small=True``) and seed :data:`SEED`, under :data:`MODES`. Each run goes
through ``TraceSimulator(mode, recorder=TraceRecorder(record_stores=True))``,
so stores are recorded as events and their order is pinned along with the
loads. Each entry holds the run's ``SimulationStats`` plus SHA-256 digests
of every packed trace column, of the workload output's ``repr()`` and of
the value store.

The small-scale pins cannot see paths that only full-scale inputs take:
x264 re-stores frames into resident blocks only from its third frame, and
canneal's netlist outgrows the L1. A workload kernel rewrite must leave
this file unchanged. The check takes about half a minute, so it runs in
CI rather than in the test suite::

    PYTHONPATH=src python scripts/make_workload_pin.py          # rewrite, print the diff
    PYTHONPATH=src python scripts/make_workload_pin.py --check  # print the diff, exit 1 on any
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

from make_phase1_pin import _counters, _sha, _trace_digest, _values_digest, diff
from repro.experiments.common import BASELINE_WORKLOADS
from repro.faults import no_memory_faults
from repro.sim.trace import TRACE_COLUMNS, TraceRecorder
from repro.sim.tracesim import Mode, TraceSimulator
from repro.workloads import get_workload

PIN = (
    Path(__file__).resolve().parent.parent
    / "tests" / "workloads" / "expected" / "full_scale_streams.json"
)

SEED = 0

#: Configuration name -> mode (the default ApproximatorConfig throughout).
MODES: Dict[str, Mode] = {"precise": Mode.PRECISE, "lva": Mode.LVA}

#: Every pinned entry, as ``"<workload>/<mode>"``.
KEYS: List[str] = [f"{w}/{m}" for w in BASELINE_WORKLOADS for m in MODES]


def run_entry(key: str) -> dict:
    """Run one ``"<workload>/<mode>"`` entry at full scale, faults suppressed."""
    workload, mode = key.split("/")
    recorder = TraceRecorder(record_stores=True)
    with no_memory_faults():
        sim = TraceSimulator(MODES[mode], recorder=recorder)
        output = get_workload(workload).execute(sim, SEED)
        stats = sim.finish()
    packed = recorder.trace.pack()
    return {
        "stats": _counters(stats),
        "digests": {
            "output": _sha(repr(output)),
            "values": _values_digest(sim.values),
            "columns": {
                name: _trace_digest(packed, ((name, dtype),))
                for name, dtype in TRACE_COLUMNS
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="print the diff without rewriting the pin"
    )
    args = parser.parse_args(argv)
    fresh = {key: run_entry(key) for key in KEYS}
    old = json.loads(PIN.read_text()) if PIN.exists() else {}
    changes = diff(old, fresh)
    print("\n".join(changes) if changes else "workload stream pin unchanged")
    if args.check:
        return 1 if changes else 0
    PIN.parent.mkdir(parents=True, exist_ok=True)
    PIN.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(fresh)} entries to {PIN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
