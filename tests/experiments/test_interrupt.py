"""KeyboardInterrupt mid-sweep: clean shutdown, then a plain rerun converges."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


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


@pytest.mark.slow
class TestInterruptedSweep:
    def test_sigint_then_rerun_recomputes_hung_point(self, tmp_path):
        """SIGINT a --jobs run stuck on an injected hang once every other
        point's result is on disk; rerunning the same command recomputes
        only the hung point and prints the uninterrupted table."""
        cache_dir = tmp_path / "cache"
        command = ["fig13", "--small", "--jobs", "2"]

        # The hang occupies one worker while the other finishes every
        # remaining point; the parent then blocks waiting on the hang.
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", *command],
            env=_runner_env(cache_dir, inject="hang:mantissa_drop_bits=23,seconds=300"),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,  # own process group: SIGINT hits only it
        )

        deadline = time.time() + 120
        try:
            # Wait until every non-hung result is stored: the baseline
            # and 4 of the 5 technique points.
            while time.time() < deadline:
                if len(list(cache_dir.glob("*/*.pkl"))) >= 5:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("the healthy points never reached the disk cache")

            os.killpg(process.pid, signal.SIGINT)
            stdout, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.communicate()

        assert process.returncode == 130, (stdout, stderr)
        assert "rerun the same command" in stderr

        # The same command without the injected hang recomputes only the
        # hung point.
        rerun = _run_cli(command, _runner_env(cache_dir))
        assert rerun.returncode == 0, rerun.stderr
        assert "1 baselines (0 computed), 1 technique runs, 5 disk hits" in rerun.stdout
        assert "FAILED" not in rerun.stdout

        # And its table equals a pristine uninterrupted run's.
        pristine = _run_cli(["fig13", "--small"], _runner_env(tmp_path / "cache2"))

        def table(text: str) -> str:
            start = text.index("== Figure 13")
            end = text.index("[fig13 completed")  # wall-clock suffix varies
            return text[start:end]

        assert table(rerun.stdout) == table(pristine.stdout)
