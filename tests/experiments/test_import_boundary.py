"""Only computing a point imports numpy and the simulators.

Declaring points, keying them, serving them from the disk cache or the
trace store, and rendering tables from the served results must load
none of the modules below. Each check runs in a fresh interpreter,
because this test process has imported everything already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.envspec import CACHE_DIR_ENV, NO_CACHE_ENV

SRC = Path(__file__).resolve().parents[2] / "src"

PHASE2 = ["table2", "fig10", "fig11", "ablate-noc-model", "--small", "--jobs", "2"]
PHASE1 = ["fig4", "fig13", "--small", "--jobs", "2"]

#: Prints, after each step, which modules that compute a point are loaded.
SCRIPT = """
import contextlib, io, json, sys

FORBIDDEN = {
    "numpy", "repro.sim.trace", "repro.sim.tracesim", "repro.sim.frontend",
    "repro.fullsystem.system", "repro.api", "repro.annotations",
}

def loaded():
    return sorted(
        name for name in sys.modules
        if name in FORBIDDEN or name == "repro.workloads"
        or name.startswith("repro.workloads.")
    )

from repro.experiments import runner

assert runner.gather_points(list(runner.DRIVERS), True, 0, 1)
report = {"declared": loaded()}
steps = (
    ("phase2", %(phase2)r, " 0 replays, 0 traces captured "),
    ("phase1", %(phase1)r, "(0 computed), 0 technique runs, "),
)
for label, argv, served in steps:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        status = runner.main(argv)
    assert status == 0 and served in out.getvalue(), out.getvalue()
    report[label] = loaded()
print(json.dumps(report))
""" % {"phase2": PHASE2, "phase1": PHASE1}


def _run(argv, cache_dir: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env[CACHE_DIR_ENV] = str(cache_dir)
    env.pop(NO_CACHE_ENV, None)
    completed = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=600
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


@pytest.mark.slow
def test_warm_rerender_imports_no_simulator(tmp_path):
    cache = tmp_path / "cache"
    names = PHASE2[:4] + PHASE1[:2]
    _run(["-m", "repro.experiments", *names, "--small", "--jobs", "2"], cache)
    report = json.loads(_run(["-c", SCRIPT], cache).strip().splitlines()[-1])
    assert report == {"declared": [], "phase2": [], "phase1": []}
