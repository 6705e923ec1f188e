"""Crash-recovery property suite: SIGKILL at every publish crash point.

The acceptance invariant for the storage layer: a process hard-killed at
*any* step of an atomic publish (cache entry, trace entry) leaves a
store from which a rerun of the same sweep converges to results
bit-identical to an uninterrupted run — and ``lva-fsck`` accounts for
every scrap of debris the kill left behind.

The kill is ``os._exit(24)`` fired by the ``kill:site=...`` storage
fault, which is indistinguishable from SIGKILL as far as the filesystem
is concerned (no flush, no atexit, no cleanup).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faults.fsfaults import CRASH_POINTS, KILL_EXIT_STATUS

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Crash points a small fig13 sweep actually traverses. Trace-store
#: publishes only happen for fullsystem captures (fig10/fig11), so the
#: trace.* points are exercised by the dedicated in-process test below.
SWEEP_CRASH_POINTS = [p for p in CRASH_POINTS if not p.startswith("trace.")]


def _runner_env(cache_dir: Path, inject: str = "") -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_NO_CACHE", None)
    if inject:
        env["REPRO_INJECT"] = inject
    else:
        env.pop("REPRO_INJECT", None)
    return env


def _run_cli(args, env, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
        **kwargs,
    )


def _run_until_killed(args, env) -> int:
    """Run the CLI expecting a hard kill; returns the exit status.

    ``os._exit`` in the parent orphans any pool workers, which would
    hold captured pipes open forever — so output goes to /dev/null and
    the whole process group is reaped afterwards.
    """
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", *args],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        returncode = process.wait(timeout=120)
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    return returncode


def _fsck(cache_dir: Path, *extra) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.experiments.fsck",
            "--cache-dir",
            str(cache_dir),
            "--json",
            *extra,
        ],
        env=_runner_env(cache_dir),
        capture_output=True,
        text=True,
        timeout=60,
    )


def _table(text: str) -> str:
    start = text.index("== Figure 13")
    end = text.index("[fig13 completed")  # wall-clock suffix varies
    return text[start:end]


@pytest.mark.slow
class TestKillAtEveryCrashPoint:
    @pytest.mark.parametrize("site", SWEEP_CRASH_POINTS)
    def test_kill_fsck_resume_bit_identical(self, tmp_path, site):
        """Property: for every publish step S — kill at S, fsck --repair,
        rerun — the final table equals an uninterrupted run's."""
        cache_dir = tmp_path / "cache"

        returncode = _run_until_killed(
            ["fig13", "--small"],
            _runner_env(cache_dir, inject=f"kill:site={site},at=1,count=1"),
        )
        assert returncode == KILL_EXIT_STATUS, (site, returncode)

        # fsck accounts for (and clears) any debris the kill left.
        scan = _fsck(cache_dir, "--repair")
        assert scan.returncode == 0, scan.stdout + scan.stderr
        rescan = json.loads(_fsck(cache_dir).stdout)
        assert rescan["clean"], rescan["findings"]

        # The rerun completes and matches a pristine run bit-for-bit.
        rerun = _run_cli(["fig13", "--small"], _runner_env(cache_dir))
        assert rerun.returncode == 0, rerun.stderr
        assert "FAILED" not in rerun.stdout
        pristine = _run_cli(["fig13", "--small"], _runner_env(tmp_path / "pristine"))
        assert pristine.returncode == 0, pristine.stderr
        assert _table(rerun.stdout) == _table(pristine.stdout)


@pytest.mark.slow
class TestKillDuringTracePublish:
    """The trace-store publish sequence, exercised in a child process
    that captures-and-stores directly (no fullsystem sweep needed)."""

    CHILD = r"""
import os, sys
from pathlib import Path
sys.path.insert(0, os.environ["CHILD_SRC"])
from repro.experiments import tracestore
from repro.sim.trace import LoadEvent, Trace

trace = Trace([
    LoadEvent(tid=i % 2, pc=0x400 + 4 * i, addr=0x1000 + 64 * i, value=i,
              is_float=False, approximable=bool(i % 2), gap=i, is_store=False)
    for i in range(8)
])
store = tracestore.TraceStore(directory=Path(os.environ["REPRO_CACHE_DIR"]) / "traces")
store.put("ab" + "0" * 62, trace.pack())
print("PUBLISHED", store.has("ab" + "0" * 62))
"""

    @pytest.mark.parametrize(
        "site", [p for p in CRASH_POINTS if p.startswith("trace.")]
    )
    def test_kill_leaves_recoverable_store(self, tmp_path, site):
        env = _runner_env(tmp_path, inject=f"kill:site={site},at=1,count=1")
        env["CHILD_SRC"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == KILL_EXIT_STATUS, (site, proc.returncode, proc.stderr)

        # Whatever the kill left behind, fsck repairs it to a clean store…
        assert _fsck(tmp_path, "--repair").returncode == 0
        assert json.loads(_fsck(tmp_path).stdout)["clean"]

        # …and a clean rerun publishes a complete, verifiable entry.
        env.pop("REPRO_INJECT")
        rerun = subprocess.run(
            [sys.executable, "-c", self.CHILD],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert rerun.returncode == 0 and "PUBLISHED True" in rerun.stdout
        assert json.loads(_fsck(tmp_path).stdout)["clean"]

    def test_post_rename_kill_leaves_complete_entry(self, tmp_path):
        """A kill *after* the rename is indistinguishable from success:
        the published entry must already be complete and verifiable."""
        env = _runner_env(
            tmp_path, inject="kill:site=trace.publish.post_rename,at=1,count=1"
        )
        env["CHILD_SRC"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == KILL_EXIT_STATUS
        scan = json.loads(_fsck(tmp_path).stdout)
        verdicts = [f["verdict"] for f in scan["findings"]]
        assert "ok" in verdicts  # the entry survived whole
        assert "corrupt" not in verdicts
