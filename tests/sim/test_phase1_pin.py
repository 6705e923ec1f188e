"""Pin of the live phase-1 simulator itself.

Every replay path shares ``TraceSimulator._serve_load``, so the
path-against-path pins in ``test_kernels.py`` cannot see a bug inside it.
``expected/phase1_small.json`` was written from the simulator before its
per-load path was flattened; each live run here must reproduce its entry
exactly: ``SimulationStats``, L1 ``CacheStats``, the technique's counters
and digests of the output, the value store, the L1 contents and the
recorded trace. ``scripts/make_phase1_pin.py`` regenerates the file and
prints a diff.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro import envspec

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))

import make_phase1_pin  # noqa: E402

PINNED = json.loads(make_phase1_pin.PIN.read_text())


def test_pin_covers_every_workload_and_config():
    assert sorted(PINNED) == sorted(make_phase1_pin.KEYS)
    assert len(PINNED) == 7 * 10


@pytest.mark.parametrize("key", make_phase1_pin.KEYS)
def test_live_run_matches_pin(key, monkeypatch):
    monkeypatch.delenv(envspec.PREDICTOR_ENV, raising=False)
    got = make_phase1_pin.run_entry(key)
    assert make_phase1_pin.diff(PINNED[key], got) == []
