"""The full-scale workload stream pin, where it is cheap to check.

``expected/full_scale_streams.json`` pins every workload's live operation
stream at full scale, stores included (``scripts/make_workload_pin.py``).
The whole check takes about 25 s and runs in CI; here the pin's coverage
is checked, and the two workloads whose full-scale runs take well under
a second are recomputed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))

import make_workload_pin  # noqa: E402

PINNED = json.loads(make_workload_pin.PIN.read_text())


def test_pin_covers_every_workload_and_mode():
    assert sorted(PINNED) == sorted(make_workload_pin.KEYS)
    assert len(PINNED) == 7 * 2


@pytest.mark.parametrize(
    "key", [k for k in make_workload_pin.KEYS if k.startswith(("blackscholes/", "swaptions/"))]
)
def test_cheap_entries_match_pin(key):
    got = make_workload_pin.run_entry(key)
    assert make_workload_pin.diff(PINNED[key], got) == []
