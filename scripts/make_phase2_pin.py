"""Regenerate the phase-2 full-system pin and print what changed.

``tests/fullsystem/expected/phase2_small.json`` pins ``FullSystemSimulator``
replays: every baseline workload's captured 4-thread trace under every
configuration in :data:`CONFIGS`, at ``small=True`` and seed :data:`SEED`.
Traces are captured the way ``capture_trace`` captures them (a precise
``TraceSimulator``, a store-folding ``TraceRecorder``, the
``PHASE2_PARAMS`` input scaling, memory faults suppressed). Each entry
holds every ``FullSystemResult`` field, each core's ``CoreStats``, the
``CacheStats`` of every L1 and the L2, the ``NetworkStats``,
``DirectoryStats`` and dropped trainings, each
approximator's counters, plus SHA-256 digests of the final L1 and L2
contents, of every link's occupancy and counters, and of the trace.
``tests/fullsystem/test_phase2_pin.py`` recomputes every entry and compares.

Regenerate only for a deliberate behaviour change, and ship the printed
diff with it::

    PYTHONPATH=src python scripts/make_phase2_pin.py          # rewrite, print the diff
    PYTHONPATH=src python scripts/make_phase2_pin.py --check  # print the diff, exit 1 on any
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path
from typing import Dict, List

from make_phase1_pin import _sha, _trace_digest, diff
from repro.core.config import ApproximatorConfig
from repro.experiments.common import BASELINE_WORKLOADS, PHASE2_PARAMS
from repro.faults import no_memory_faults
from repro.fullsystem import FullSystemConfig, FullSystemSimulator
from repro.mem.cache import SetAssociativeCache
from repro.sim.trace import PackedTrace, TraceRecorder
from repro.sim.tracesim import Mode, TraceSimulator
from repro.workloads import get_workload

PIN = (
    Path(__file__).resolve().parent.parent
    / "tests" / "fullsystem" / "expected" / "phase2_small.json"
)

SEED = 3

def _lva(degree: int) -> dict:
    return {"approximate": True, "approximator": ApproximatorConfig(approximation_degree=degree)}


#: Configuration name -> FullSystemConfig keyword arguments.
CONFIGS: Dict[str, dict] = {
    "precise": {},
    "lva-degree0": _lva(0),
    "lva-degree4": _lva(4),
    "lva-degree16": _lva(16),
}

#: Every pinned entry, as ``"<workload>/<config>"``.
KEYS: List[str] = [f"{w}/{c}" for w in BASELINE_WORKLOADS for c in CONFIGS]


@functools.lru_cache(maxsize=None)
def capture(workload: str) -> PackedTrace:
    """The workload's phase-2 trace, captured as ``capture_trace`` does."""
    recorder = TraceRecorder(record_stores=False)
    with no_memory_faults():
        sim = TraceSimulator(Mode.PRECISE, recorder=recorder)
        get_workload(workload, params=PHASE2_PARAMS.get(workload), small=True).execute(
            sim, SEED
        )
        sim.finish()
    return recorder.trace.pack()


def _cache_digest(cache: SetAssociativeCache) -> str:
    lines = []
    for index, ways in enumerate(cache._sets):
        blocks = sorted(ways.values(), key=lambda block: block.tag)
        lines.append(
            f"{index}:" + ",".join(f"{b.tag}/{b.last_use}/{int(b.dirty)}" for b in blocks)
        )
    return _sha("\n".join(lines))


def _links_digest(sim: FullSystemSimulator) -> str:
    return _sha(
        "\n".join(
            f"{key}:{link.busy_until}/{link.busy_until_low}:"
            f"{link.stats.packets}/{link.stats.flits}/{link.stats.queueing_cycles}"
            for key, link in sorted(sim.noc._links.items())
        )
    )


def _approximator_counters(sim: FullSystemSimulator) -> List[dict]:
    counters = []
    for approximator in sim.approximators or ():
        stats = dataclasses.asdict(approximator.stats)
        stats["static_pcs"] = len(approximator.stats.static_pcs)
        counters.append(stats)
    return counters


def run_entry(key: str) -> dict:
    """Replay one ``"<workload>/<config>"`` pin entry from scratch."""
    workload, config = key.split("/")
    trace = capture(workload)
    sim = FullSystemSimulator(FullSystemConfig(**CONFIGS[config]))
    result = sim.run(trace)
    return {
        "result": dataclasses.asdict(result),
        "cores": [dataclasses.asdict(core.stats) for core in sim.cores],
        "l1s": [l1.stats.as_dict() for l1 in sim.l1s],
        "l2": sim.l2.stats.as_dict(),
        "noc": dataclasses.asdict(sim.noc.stats),
        "directory": dataclasses.asdict(sim.directory.stats),
        "dropped_trainings": sim.dropped_trainings,
        "approximators": _approximator_counters(sim),
        "digests": {
            "l1s": [_cache_digest(l1) for l1 in sim.l1s],
            "l2": _cache_digest(sim.l2),
            "links": _links_digest(sim),
            "trace": _trace_digest(trace),
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
    print("\n".join(changes) if changes else "phase-2 pin unchanged")
    if args.check:
        return 1 if changes else 0
    PIN.parent.mkdir(parents=True, exist_ok=True)
    PIN.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(fresh)} entries to {PIN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
