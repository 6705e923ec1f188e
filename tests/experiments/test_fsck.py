"""lva-fsck: scan verdicts, repair semantics, CLI contract."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.experiments import diskcache, fsck, integrity, tracestore
from repro.faults import fsfaults
from repro.faults.memory import INJECT_ENV
from repro.sim.trace import LoadEvent, Trace

GOOD = "ab" + "0" * 62
BAD = "cd" + "0" * 62


@pytest.fixture(autouse=True)
def _hermetic(monkeypatch):
    monkeypatch.delenv(INJECT_ENV, raising=False)
    fsfaults.reset_counters()
    integrity.reset_warnings()
    yield
    fsfaults.reset_counters()
    integrity.reset_warnings()


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.delenv(diskcache.NO_CACHE_ENV, raising=False)
    monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path))
    return tmp_path


def sample_trace(n: int = 5) -> Trace:
    return Trace(
        [
            LoadEvent(
                tid=i % 2,
                pc=0x400 + 4 * i,
                addr=0x1000 + 64 * i,
                value=i,
                is_float=False,
                approximable=bool(i % 2),
                gap=i,
                is_store=False,
            )
            for i in range(n)
        ]
    )


def _flip_tail(path, offset_from_end=3):
    blob = bytearray(path.read_bytes())
    blob[-offset_from_end] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestScanVerdicts:
    def test_clean_store_is_all_ok(self, cache_dir):
        cache = diskcache.DiskCache(directory=cache_dir)
        cache.put(GOOD, {"v": 1})
        store = tracestore.TraceStore(directory=cache_dir / "traces")
        store.put(GOOD, sample_trace().pack())
        report = fsck.scan(cache_dir)
        assert report.counts() == {"ok": 2}
        assert not report.problems

    def test_detects_every_injected_cache_corruption(self, cache_dir, monkeypatch):
        """100% detection over the write-fault matrix (acceptance)."""
        cache = diskcache.DiskCache(directory=cache_dir)
        specs = {
            "11" + "0" * 62: "torn:target=cache",
            "22" + "0" * 62: "fsync:target=cache,frac=0.3",
            "33" + "0" * 62: "corrupt:target=cache",
            "44" + "0" * 62: "trunc:target=cache",
        }
        for key, spec in specs.items():
            monkeypatch.setenv(INJECT_ENV, spec)
            fsfaults.reset_counters()
            cache.put(key, {"k": key})
        monkeypatch.delenv(INJECT_ENV)
        report = fsck.scan(cache_dir)
        corrupt = [f for f in report.findings if f.verdict == "corrupt"]
        assert len(corrupt) == len(specs)

    def test_detects_every_injected_trace_corruption(self, cache_dir, monkeypatch):
        store = tracestore.TraceStore(directory=cache_dir / "traces")
        packed = sample_trace().pack()
        specs = {
            "11" + "0" * 62: "torn:target=trace,op=column.write",
            "22" + "0" * 62: "corrupt:target=trace,op=column.write",
            "33" + "0" * 62: "torn:target=trace,op=meta.write",
            "44" + "0" * 62: "trunc:target=trace,path=.npy",
        }
        for key, spec in specs.items():
            monkeypatch.setenv(INJECT_ENV, spec)
            fsfaults.reset_counters()
            store.put(key, packed)
        monkeypatch.delenv(INJECT_ENV)
        report = fsck.scan(cache_dir)
        corrupt = [f for f in report.findings if f.verdict == "corrupt"]
        assert len(corrupt) == len(specs)

    def test_legacy_raw_pickle_is_schema_mismatch(self, cache_dir):
        path = cache_dir / BAD[:2] / f"{BAD}.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"old": "v1 entry"}))
        report = fsck.scan(cache_dir)
        assert [f.verdict for f in report.findings] == ["schema-mismatch"]

    def test_orphaned_tmp_file_and_dir(self, cache_dir):
        (cache_dir / "ab").mkdir(parents=True)
        (cache_dir / "ab" / ".g99-1.zzz.tmp").write_bytes(b"debris")
        tmpdir = cache_dir / "traces" / "ab" / ".abcd1234-g99-2-x.tmp"
        tmpdir.mkdir(parents=True)
        (tmpdir / "addr.npy").write_bytes(b"partial")
        report = fsck.scan(cache_dir)
        assert sorted(f.verdict for f in report.findings) == ["orphaned-tmp", "orphaned-tmp"]

    def test_stale_trace_schema_is_schema_mismatch(self, cache_dir):
        store = tracestore.TraceStore(directory=cache_dir / "traces")
        store.put(GOOD, sample_trace().pack())
        meta_path = store._entry_dir(GOOD) / tracestore.META_NAME
        meta = json.loads(meta_path.read_text())
        meta["trace_schema"] = tracestore.TRACE_SCHEMA_VERSION - 1
        meta_path.write_text(json.dumps(integrity.seal_record(meta)))
        report = fsck.scan(cache_dir)
        assert [f.verdict for f in report.findings] == ["schema-mismatch"]

    def test_legacy_journals_directory_is_skipped(self, cache_dir):
        """Older versions wrote run journals beside the cache; a cache
        that still holds them scans clean."""
        (cache_dir / "journals").mkdir()
        (cache_dir / "journals" / "r.jsonl").write_bytes(b"NOT JSON\n")
        assert fsck.scan(cache_dir).findings == []

    def test_quarantine_subtree_is_skipped(self, cache_dir):
        bad = cache_dir / integrity.QUARANTINE_DIR / "cache" / "x.pkl"
        bad.parent.mkdir(parents=True)
        bad.write_bytes(b"garbage")
        assert fsck.scan(cache_dir).findings == []


class TestRepair:
    def test_repair_quarantines_and_store_scans_clean(self, cache_dir, monkeypatch):
        cache = diskcache.DiskCache(directory=cache_dir)
        cache.put(GOOD, {"v": 1})
        monkeypatch.setenv(INJECT_ENV, "corrupt:target=cache")
        fsfaults.reset_counters()
        cache.put(BAD, {"v": 2})
        monkeypatch.delenv(INJECT_ENV)

        report = fsck.scan(cache_dir)
        fsck.repair(report, cache_dir)
        assert all(f.action.startswith("quarantined") for f in report.problems)
        assert not fsck.scan(cache_dir).problems
        # the good entry survived, the bad one is preserved as evidence
        assert cache.get(GOOD) == {"v": 1}
        assert (cache_dir / integrity.QUARANTINE_DIR / "cache" / f"{BAD}.pkl").exists()

    def test_delete_removes_instead_of_quarantining(self, cache_dir, monkeypatch):
        monkeypatch.setenv(INJECT_ENV, "torn:target=trace,op=meta.write")
        fsfaults.reset_counters()
        store = tracestore.TraceStore(directory=cache_dir / "traces")
        store.put(BAD, sample_trace().pack())
        monkeypatch.delenv(INJECT_ENV)

        report = fsck.scan(cache_dir)
        fsck.repair(report, cache_dir, delete=True)
        assert [f.action for f in report.problems] == ["deleted"]
        assert not (cache_dir / integrity.QUARANTINE_DIR).exists()
        assert not fsck.scan(cache_dir).problems


class TestCli:
    def test_clean_store_exits_zero(self, cache_dir, capsys):
        diskcache.DiskCache(directory=cache_dir).put(GOOD, {"v": 1})
        assert fsck.main(["--cache-dir", str(cache_dir)]) == 0
        assert "1 ok" in capsys.readouterr().out

    def test_problems_exit_one_without_repair(self, cache_dir, capsys):
        path = cache_dir / "ab" / f"{GOOD}.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"x")
        assert fsck.main(["--cache-dir", str(cache_dir)]) == 1
        assert "--repair" in capsys.readouterr().out

    def test_repair_resolves_to_exit_zero(self, cache_dir, capsys):
        path = cache_dir / "ab" / f"{GOOD}.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"x")
        assert fsck.main(["--cache-dir", str(cache_dir), "--repair"]) == 0
        assert fsck.main(["--cache-dir", str(cache_dir)]) == 0

    def test_json_output_is_machine_readable(self, cache_dir, capsys):
        diskcache.DiskCache(directory=cache_dir).put(GOOD, {"v": 1})
        assert fsck.main(["--cache-dir", str(cache_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] and payload["counts"] == {"ok": 1}

    def test_module_entrypoint_exists(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.fsck", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and "lva-fsck" in proc.stdout
