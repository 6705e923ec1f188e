"""Tests for the memory-mapped cross-process trace store."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import common, diskcache, tracestore
from repro.sim.trace import LoadEvent, Trace


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Enable the persistent layers, rooted in a throwaway directory."""
    monkeypatch.delenv(diskcache.NO_CACHE_ENV, raising=False)
    monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path))
    return tmp_path


def sample_trace(n: int = 6) -> Trace:
    return Trace(
        [
            LoadEvent(
                tid=i % 4,
                pc=0x400 + 4 * i,
                addr=0x1000 + 64 * i,
                value=float(i) * 0.5 if i % 2 else i,
                is_float=bool(i % 2),
                approximable=bool(i % 3),
                gap=i,
                is_store=(i == 4),
            )
            for i in range(n)
        ]
    )


class TestPutGet:
    def test_round_trip(self, cache_dir):
        store = tracestore.TraceStore(directory=cache_dir / "traces")
        packed = sample_trace().pack()
        store.put("ab" + "0" * 62, packed)
        loaded = store.get("ab" + "0" * 62)
        assert loaded is not None
        assert loaded.to_trace().events == packed.to_trace().events
        assert store.stats.stores == 1 and store.stats.hits == 1

    def test_get_returns_memory_maps(self, cache_dir):
        store = tracestore.TraceStore(directory=cache_dir / "traces")
        store.put("cd" + "0" * 62, sample_trace().pack())
        loaded = store.get("cd" + "0" * 62)
        assert isinstance(loaded.pc, np.memmap)
        assert store.stats.bytes_mapped == loaded.nbytes

    def test_empty_trace_round_trips(self, cache_dir):
        store = tracestore.TraceStore(directory=cache_dir / "traces")
        store.put("ee" + "0" * 62, Trace().pack())
        loaded = store.get("ee" + "0" * 62)
        assert loaded is not None and len(loaded) == 0

    def test_absent_key_is_miss(self, cache_dir):
        store = tracestore.TraceStore(directory=cache_dir / "traces")
        assert store.get("ff" + "0" * 62) is None
        assert store.stats.misses == 1
        assert not store.has("ff" + "0" * 62)

    def test_put_is_idempotent(self, cache_dir):
        store = tracestore.TraceStore(directory=cache_dir / "traces")
        packed = sample_trace().pack()
        store.put("aa" + "0" * 62, packed)
        store.put("aa" + "0" * 62, packed)
        assert store.stats.stores == 1
        assert len(store) == 1

    def test_unwritable_directory_degrades_with_one_warning(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        store = tracestore.TraceStore(directory=blocker / "traces")
        with pytest.warns(RuntimeWarning):
            store.put("aa" + "0" * 62, sample_trace().pack())
        # Broken flag set: further puts are silent no-ops.
        store.put("bb" + "0" * 62, sample_trace().pack())
        assert store.stats.stores == 0


class TestHealing:
    def put_one(self, cache_dir, key="ab" + "1" * 62):
        store = tracestore.TraceStore(directory=cache_dir / "traces")
        store.put(key, sample_trace().pack())
        entry = store._entry_dir(key)
        assert entry.is_dir()
        return store, key, entry

    def test_truncated_column_heals_as_miss(self, cache_dir):
        store, key, entry = self.put_one(cache_dir)
        (entry / "pc.npy").write_bytes(b"\x93NUMPY garbage")
        assert store.get(key) is None
        assert not entry.exists(), "corrupt entry should be deleted"
        # The slot accepts a fresh capture afterwards.
        store.put(key, sample_trace().pack())
        assert store.get(key) is not None

    def test_missing_column_heals_as_miss(self, cache_dir):
        store, key, entry = self.put_one(cache_dir)
        (entry / "addr.npy").unlink()
        assert store.get(key) is None
        assert not entry.exists()

    def test_schema_mismatch_heals_as_miss(self, cache_dir):
        store, key, entry = self.put_one(cache_dir)
        meta = json.loads((entry / tracestore.META_NAME).read_text())
        meta["trace_schema"] = tracestore.TRACE_SCHEMA_VERSION + 1
        (entry / tracestore.META_NAME).write_text(json.dumps(meta))
        assert not store.has(key)
        assert store.get(key) is None
        assert not entry.exists()

    def test_wrong_length_meta_heals_as_miss(self, cache_dir):
        store, key, entry = self.put_one(cache_dir)
        meta = json.loads((entry / tracestore.META_NAME).read_text())
        meta["events"] = 999
        (entry / tracestore.META_NAME).write_text(json.dumps(meta))
        assert store.get(key) is None
        assert not entry.exists()


class TestKeys:
    def test_key_components_distinguish(self):
        base = tracestore.trace_key("canneal", 0, False, None)
        assert tracestore.trace_key("canneal", 1, False, None) != base
        assert tracestore.trace_key("canneal", 0, True, None) != base
        assert tracestore.trace_key("ferret", 0, False, None) != base
        assert tracestore.trace_key("canneal", 0, False, {"n": 2}) != base

    def test_schema_version_participates(self, monkeypatch):
        base = tracestore.trace_key("canneal", 0, False, None)
        monkeypatch.setattr(tracestore, "TRACE_SCHEMA_VERSION", 999)
        assert tracestore.trace_key("canneal", 0, False, None) != base


class TestActiveStore:
    def test_disabled_with_no_cache_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(diskcache.NO_CACHE_ENV, "1")
        assert tracestore.active_store() is None

    def test_enabled_beside_result_cache(self, cache_dir):
        store = tracestore.active_store()
        assert store is not None
        assert store.directory == cache_dir / "traces"

    def test_redirects_when_cache_dir_changes(self, cache_dir, monkeypatch):
        first = tracestore.active_store()
        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(cache_dir / "other"))
        second = tracestore.active_store()
        assert second is not None and second is not first
        assert second.directory == cache_dir / "other" / "traces"


class TestConcurrentReaders:
    READER = """
import os, sys
sys.path.insert(0, os.environ["REPRO_SRC"])
from repro.experiments import tracestore
store = tracestore.TraceStore(directory=__import__("pathlib").Path(sys.argv[1]))
packed = store.get(sys.argv[2])
assert packed is not None, "reader missed the entry"
# Touch every column through the mmap and emit a stable digest.
total = int(packed.pc.sum()) + int(packed.addr.sum()) + int(packed.gap.sum())
print(len(packed), total, sum(1 for v in packed.value_list() if isinstance(v, int)))
"""

    def test_parallel_processes_share_the_entry(self, cache_dir):
        key = "ab" + "2" * 62
        store = tracestore.TraceStore(directory=cache_dir / "traces")
        packed = sample_trace(64).pack()
        store.put(key, packed)

        env = dict(os.environ)
        env["REPRO_SRC"] = str(Path(__file__).resolve().parents[2] / "src")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", self.READER, str(store.directory), key],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
            )
            for _ in range(3)
        ]
        outputs = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            outputs.append(out.strip())
        assert len(set(outputs)) == 1, "readers disagreed on the mapped bytes"
        expected = (
            f"{len(packed)} "
            f"{int(packed.pc.sum()) + int(packed.addr.sum()) + int(packed.gap.sum())} "
            f"{sum(1 for v in packed.value_list() if isinstance(v, int))}"
        )
        assert outputs[0] == expected


class TestCaptureIntegration:
    def test_capture_trace_publishes_and_rehydrates(self, cache_dir):
        common._TRACE_CACHE.clear()
        store = tracestore.active_store()
        assert store is not None and len(store) == 0

        first = common.capture_trace("swaptions", small=True)
        assert len(store) == 1

        # Cold in-process cache: the second call must come from the store.
        common._TRACE_CACHE.clear()
        before = store.stats.hits
        second = common.capture_trace("swaptions", small=True)
        assert store.stats.hits == before + 1
        assert second.to_trace().events == first.to_trace().events

    def test_trace_lru_is_bounded(self):
        capacity = common.TRACE_LRU_CAPACITY
        lru = common._PackedTraceLRU()
        for i in range(capacity + 2):
            lru.put(("w", i, False), sample_trace(i + 1).pack())
        assert len(lru) == capacity
        assert ("w", capacity + 1, False) in lru and ("w", 2, False) in lru
        assert ("w", 0, False) not in lru and ("w", 1, False) not in lru

    def test_trace_lru_get_refreshes_recency(self):
        capacity = common.TRACE_LRU_CAPACITY
        lru = common._PackedTraceLRU()
        for i in range(capacity):
            lru.put(("w", i, False), sample_trace(i + 1).pack())
        assert lru.get(("w", 0, False)) is not None  # refresh the oldest
        lru.put(("new", 0, False), sample_trace(capacity + 1).pack())
        assert ("w", 0, False) in lru
        assert ("w", 1, False) not in lru
