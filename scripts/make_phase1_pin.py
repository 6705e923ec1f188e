"""Regenerate the phase-1 simulator pin and print what changed.

``tests/sim/expected/phase1_small.json`` pins live ``TraceSimulator`` runs:
every baseline workload under every configuration in :data:`CONFIGS`, at
``small=True`` and seed :data:`SEED`. Each entry holds the run's
``SimulationStats``, its L1 ``CacheStats`` and the technique's counters,
plus SHA-256 digests of the workload output's ``repr()``, the value
store, the final L1 contents and the recorded load trace.
``tests/sim/test_phase1_pin.py`` recomputes every entry and compares.

Regenerate only for a deliberate behaviour change, and ship the printed
diff with it::

    PYTHONPATH=src python scripts/make_phase1_pin.py          # rewrite, print the diff
    PYTHONPATH=src python scripts/make_phase1_pin.py --check  # print the diff, exit 1 on any
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from repro import envspec
from repro.core.config import ApproximatorConfig
from repro.experiments.common import BASELINE_WORKLOADS
from repro.faults import no_memory_faults
from repro.sim.trace import TRACE_COLUMNS, PackedTrace, TraceRecorder
from repro.sim.tracesim import Mode, TraceSimulator
from repro.workloads import get_workload

PIN = Path(__file__).resolve().parent.parent / "tests" / "sim" / "expected" / "phase1_small.json"

SEED = 3

#: Configuration name -> (mode, ApproximatorConfig overrides).
CONFIGS: Dict[str, Tuple[Mode, dict]] = {
    "precise": (Mode.PRECISE, {}),
    "lva": (Mode.LVA, {}),
    "lvp": (Mode.LVP, {}),
    "prefetch": (Mode.PREFETCH, {}),
    "lva-delay0": (Mode.LVA, {"value_delay": 0}),
    "lva-delay8": (Mode.LVA, {"value_delay": 8}),
    "lva-degree4": (Mode.LVA, {"approximation_degree": 4}),
    "lva-ghb2": (Mode.LVA, {"ghb_size": 2}),
    "clp": (Mode.PREDICTOR, {"predictor": "clp"}),
    "hybrid": (Mode.PREDICTOR, {"predictor": "hybrid"}),
}

#: Every pinned entry, as ``"<workload>/<config>"``.
KEYS: List[str] = [f"{w}/{c}" for w in BASELINE_WORKLOADS for c in CONFIGS]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _counters(stats: object) -> dict:
    """A stats dataclass as JSON-ready data (sets become sorted lists)."""
    return {
        name: sorted(value) if isinstance(value, set) else value
        for name, value in dataclasses.asdict(stats).items()
    }


def _technique_counters(sim: TraceSimulator) -> dict:
    counters = {}
    for attr in ("approximator", "predictor", "generic_predictor", "prefetcher"):
        technique = getattr(sim, attr)
        if technique is None:
            continue
        counters[attr] = _counters(technique.stats)
        for part in ("lva", "lvp"):  # the hybrid's components
            component = getattr(technique, part, None)
            if component is not None:
                counters[f"{attr}.{part}"] = _counters(component.stats)
    return counters


def _values_digest(values: dict) -> str:
    return _sha(
        "\n".join(
            f"{addr}:{type(value).__name__}:{value!r}" for addr, value in sorted(values.items())
        )
    )


def _l1_digest(sim: TraceSimulator) -> str:
    lines = []
    for index, ways in enumerate(sim.l1._sets):
        blocks = sorted(ways.values(), key=lambda block: block.tag)
        lines.append(
            f"{index}:"
            + ",".join(
                f"{b.tag}/{b.last_use}/{int(b.dirty)}/{int(b.prefetched)}" for b in blocks
            )
        )
    return _sha("\n".join(lines))


def _trace_digest(packed: PackedTrace, columns=TRACE_COLUMNS) -> str:
    digest = hashlib.sha256()
    for name, dtype in columns:
        digest.update(f"{name}:{dtype}:".encode())
        digest.update(getattr(packed, name).tobytes())
    return digest.hexdigest()


def run_entry(key: str) -> dict:
    """Simulate one ``"<workload>/<config>"`` pin entry from scratch.

    Memory faults are suppressed and ``REPRO_PREDICTOR`` must be unset,
    so the entry describes the clean simulator.
    """
    if os.environ.get(envspec.PREDICTOR_ENV):
        raise RuntimeError(f"unset {envspec.PREDICTOR_ENV} to compute the phase-1 pin")
    workload, config = key.split("/")
    mode, overrides = CONFIGS[config]
    recorder = TraceRecorder(record_stores=False)
    with no_memory_faults():
        sim = TraceSimulator(
            mode, approximator_config=ApproximatorConfig(**overrides), recorder=recorder
        )
        output = get_workload(workload, small=True).execute(sim, SEED)
        stats = sim.finish()
    return {
        "stats": stats.as_dict(),
        "l1": sim.l1.stats.as_dict(),
        "technique": _technique_counters(sim),
        "digests": {
            "output": _sha(repr(output)),
            "values": _values_digest(sim.values),
            "l1": _l1_digest(sim),
            "trace": _trace_digest(recorder.trace.pack()),
        },
    }


def _flatten(data: object, prefix: str = "") -> Dict[str, object]:
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = ((str(index), value) for index, value in enumerate(data))
    else:
        return {prefix: data}
    flat: Dict[str, object] = {}
    for name, value in items:
        flat.update(_flatten(value, f"{prefix}.{name}" if prefix else name))
    return flat


def diff(old: dict, new: dict) -> List[str]:
    """One line per leaf that was added, removed or changed."""
    before, after = _flatten(old), _flatten(new)
    lines = []
    for name in sorted(set(before) | set(after)):
        if before.get(name, "<absent>") != after.get(name, "<absent>"):
            lines.append(f"{name}: {before.get(name, '<absent>')} -> {after.get(name, '<absent>')}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="print the diff without rewriting the pin"
    )
    args = parser.parse_args(argv)
    fresh = {key: run_entry(key) for key in KEYS}
    old = json.loads(PIN.read_text()) if PIN.exists() else {}
    changes = diff(old, fresh)
    print("\n".join(changes) if changes else "phase-1 pin unchanged")
    if args.check:
        return 1 if changes else 0
    PIN.parent.mkdir(parents=True, exist_ok=True)
    PIN.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(fresh)} entries to {PIN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
