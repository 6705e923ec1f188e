"""Pin of the full-system simulator itself.

``run()`` and ``replay_events()`` share the miss path, the NoC, the
caches, the directory and the approximators, so the path-against-path
pins in ``test_packed_replay.py`` cannot see a bug inside them.
``expected/phase2_small.json`` was written from the simulator before its
replay loop was rescheduled; each replay here must reproduce its entry
exactly: every ``FullSystemResult`` field, the per-core, cache, NoC,
directory and approximator counters, and digests of the final
cache contents, the link occupancy and the trace.
``scripts/make_phase2_pin.py`` regenerates the file and prints a diff.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))

import make_phase2_pin  # noqa: E402

PINNED = json.loads(make_phase2_pin.PIN.read_text())


def test_pin_covers_every_workload_and_config():
    assert sorted(PINNED) == sorted(make_phase2_pin.KEYS)
    assert len(PINNED) == 7 * 4


@pytest.mark.parametrize("key", make_phase2_pin.KEYS)
def test_replay_matches_pin(key):
    got = make_phase2_pin.run_entry(key)
    assert make_phase2_pin.diff(PINNED[key], got) == []
