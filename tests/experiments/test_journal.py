"""The run journal and checkpoint/resume (repro.experiments.journal)."""

from __future__ import annotations

import json
import math

import pytest

from repro import faults
from repro.experiments import common, diskcache, fig13
from repro.experiments.journal import NullJournal, RunJournal, run_id
from repro.experiments.sweep import SweepEngine


@pytest.fixture(autouse=True)
def _no_stray_injection():
    """No fault spec a test activates leaks out of it."""
    yield
    faults.deactivate()


class TestRunId:
    def test_order_insensitive(self):
        assert run_id(["a", "b", "c"]) == run_id(["c", "a", "b"])

    def test_different_point_sets_differ(self):
        assert run_id(["a", "b"]) != run_id(["a", "b", "c"])


class TestRunJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.record_done("precise", "k1")
            journal.record_done("technique", "k2")
            journal.record_failed("technique", "k3", "RuntimeError", "boom", 2)

        reloaded = RunJournal(path, resume=True)
        assert reloaded.done == {"k1", "k2"}
        assert set(reloaded.failed) == {"k3"}
        reloaded.close()

    def test_done_after_failed_wins(self, tmp_path):
        """A --resume rerun that recomputes a failed point journals a
        done record for the same key; the replay must honour the latest."""
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.record_failed("technique", "k", "RuntimeError", "boom", 1)
            journal.record_done("technique", "k")
        reloaded = RunJournal(path, resume=True)
        assert reloaded.done == {"k"}
        assert not reloaded.failed
        reloaded.close()

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.record_done("technique", "k1")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "done", "kind": "tech')  # hard kill mid-write

        reloaded = RunJournal(path, resume=True)
        assert reloaded.done == {"k1"}
        reloaded.close()

    def test_mid_file_garbage_skipped_and_counted(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.record_done("technique", "k1")
            journal.record_done("technique", "k2")
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + b"\x00\xffBINARY JUNK\n" + lines[1])
        reloaded = RunJournal(path, resume=True)
        assert reloaded.done == {"k1", "k2"}
        assert reloaded.corrupt_lines == 1 and not reloaded.torn_tail
        reloaded.close()

    def test_checksum_mismatch_line_is_rejected(self, tmp_path):
        """A record that parses as JSON but fails its CRC (bit rot, or a
        hand-edited journal) must not be resurrected into bookkeeping."""
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.record_done("technique", "k1")
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"k1"', '"kX"'), encoding="utf-8")
        reloaded = RunJournal(path, resume=True)
        assert reloaded.done == set()
        assert reloaded.corrupt_lines == 1
        reloaded.close()

    def test_fresh_run_truncates(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.record_done("technique", "k1")
        with RunJournal(path, resume=False) as journal:
            pass
        assert path.read_text() == ""

    def test_unwritable_location_warns_once_and_noops(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory is needed")
        with pytest.warns(RuntimeWarning, match="journal unavailable"):
            journal = RunJournal(blocker / "sub" / "run.jsonl")
        # Records are dropped silently after the single warning.
        journal.record_done("technique", "k1")
        journal.record_failed("technique", "k2", "E", "m", 1)
        journal.close()

    def test_interleaved_writers_from_two_processes(self, tmp_path):
        """Two pids appending to the same journal must interleave without
        tearing: every record survives intact (one O_APPEND write per
        sealed line) and the replay sees each point exactly once."""
        import os as _os
        import subprocess
        import sys
        from pathlib import Path

        path = tmp_path / "run.jsonl"
        repo_src = Path(__file__).resolve().parents[2] / "src"
        child = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from repro.experiments.journal import RunJournal\n"
            "with RunJournal(sys.argv[2], resume=True) as journal:\n"
            "    for i in range(50):\n"
            "        journal.record_done('technique', f'{sys.argv[3]}-{i}')\n"
        )
        env = dict(_os.environ)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", child, str(repo_src), str(path), prefix],
                env=env,
            )
            for prefix in ("a", "b")
        ]
        assert [p.wait(timeout=60) for p in procs] == [0, 0]

        reloaded = RunJournal(path, resume=True)
        assert reloaded.done == {f"{p}-{i}" for p in "ab" for i in range(50)}
        assert reloaded.corrupt_lines == 0 and not reloaded.torn_tail
        assert reloaded.recovered_lines == 100  # no duplicates, no losses
        reloaded.close()

    def test_null_journal_is_inert(self):
        journal = NullJournal()
        journal.record_done("technique", "k")
        journal.record_failed("technique", "k", "E", "m", 1)
        assert journal.done == frozenset()
        journal.close()


class TestEngineResume:
    def test_interrupted_run_resumes_only_missing_points(self, disk_cache):
        """Acceptance: a run with one FAILED point, rerun with resume=True,
        recomputes exactly the missing point and completes the table."""
        faults.activate("raise:mantissa_drop_bits=11")
        first = SweepEngine(jobs=1).execute(fig13.DRIVER.points(small=True))
        assert len(first.failures) == 1
        faults.deactivate()

        # A fresh process would start with cold in-memory caches (but the
        # disk cache and journal survive).
        common._RESULTS.clear()
        common._TRACE_CACHE.clear()

        second = SweepEngine(jobs=1, resume=True).execute(fig13.DRIVER.points(small=True))
        assert not second.failures
        assert second.resumed_points == 5  # 1 baseline + 4 healthy points
        assert second.technique_computed == 1  # only the previously failed one

        table = fig13.DRIVER.render(small=True)
        assert not any(
            math.isnan(v) for v in table.series["normalized_mpki"].values()
        )

    def test_resumed_table_is_bitwise_identical(self, disk_cache):
        faults.activate("raise:mantissa_drop_bits=11")
        SweepEngine(jobs=1).execute(fig13.DRIVER.points(small=True))
        faults.deactivate()
        common._RESULTS.clear()
        common._TRACE_CACHE.clear()
        SweepEngine(jobs=1, resume=True).execute(fig13.DRIVER.points(small=True))
        resumed = fig13.DRIVER.render(small=True)

        # Uninterrupted run on pristine caches, different directory.
        import os

        os.environ[diskcache.CACHE_DIR_ENV] = os.environ[diskcache.CACHE_DIR_ENV] + "2"
        diskcache._ACTIVE = None
        common._RESULTS.clear()
        common._TRACE_CACHE.clear()
        SweepEngine(jobs=1).execute(fig13.DRIVER.points(small=True))
        pristine = fig13.DRIVER.render(small=True)

        assert resumed.series == pristine.series

    def test_resume_after_torn_journal_tail_recomputes_once(self, disk_cache):
        """A torn final line (hard kill mid-append) loses exactly that
        point's record; --resume recomputes it once, never duplicates."""
        SweepEngine(jobs=1).execute(fig13.DRIVER.points(small=True))
        journals = list((diskcache.default_cache_dir() / "journals").glob("*.jsonl"))
        assert len(journals) == 1
        blob = journals[0].read_bytes()
        lines = blob.splitlines(keepends=True)
        journals[0].write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])

        common._RESULTS.clear()
        common._TRACE_CACHE.clear()
        second = SweepEngine(jobs=1, resume=True).execute(fig13.DRIVER.points(small=True))
        assert not second.failures
        assert second.resumed_points == 5  # all but the torn record
        records = [
            json.loads(line)
            for line in journals[0].read_text().splitlines()
            if line.strip()
        ]
        done_keys = [r["key"] for r in records if r.get("event") == "done"]
        assert len(done_keys) == len(set(done_keys))  # no duplicated points

    def test_journal_written_next_to_cache(self, disk_cache):
        SweepEngine(jobs=1).execute(fig13.DRIVER.points(small=True))
        journals = list((diskcache.default_cache_dir() / "journals").glob("*.jsonl"))
        assert len(journals) == 1
        records = [
            json.loads(line)
            for line in journals[0].read_text().splitlines()
            if line.strip()
        ]
        assert len(records) == 6  # 1 baseline + 5 technique points
        assert {r["event"] for r in records} == {"done"}

    def test_no_cache_run_journals_nothing(self, fresh_results, monkeypatch, tmp_path):
        """With the disk layer off the engine must not scribble journals
        into the user's home directory."""
        monkeypatch.setenv(diskcache.NO_CACHE_ENV, "1")
        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path / "nope"))
        SweepEngine(jobs=1).execute(fig13.DRIVER.points(small=True))
        assert not (tmp_path / "nope").exists()
