"""The filesystem fault injector (repro.faults.fsfaults)."""

from __future__ import annotations

import errno

import pytest

from repro import faults
from repro.errors import ConfigurationError
from repro.experiments.common import technique_disk_key
from repro.faults import fsfaults
from repro.faults.memory import INJECT_ENV, active_memory_spec
from repro.faults.spec import STORAGE_KINDS, parse_spec, storage_clauses
from repro.sim.tracesim import Mode


@pytest.fixture(autouse=True)
def _fresh_counters():
    fsfaults.reset_counters()
    yield
    fsfaults.reset_counters()


def _activate(monkeypatch, spec: str) -> None:
    monkeypatch.setenv(INJECT_ENV, spec)
    fsfaults.reset_counters()


class TestSpecGrammar:
    def test_every_storage_kind_parses(self):
        spec = ";".join(sorted(STORAGE_KINDS))
        clauses = parse_spec(spec)
        assert {c.kind for c in clauses} == STORAGE_KINDS
        assert all(c.is_storage for c in clauses)

    def test_storage_clauses_filter(self):
        clauses = parse_spec("flip:prob=0.1;torn:target=cache;crash")
        storage = storage_clauses(clauses)
        assert [c.kind for c in storage] == ["torn"]

    def test_unknown_kind_still_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_spec("shred:target=cache")

    @pytest.mark.parametrize("target", ["cache", "trace", "any"])
    def test_every_store_target_parses(self, target):
        assert parse_spec(f"torn:target={target}")[0].get("target") == target

    @pytest.mark.parametrize("target", ["cahce", "journal", "1"])
    def test_target_naming_no_store_is_rejected(self, target):
        """Such a clause would parse and inject nothing."""
        with pytest.raises(ConfigurationError, match="names no store"):
            parse_spec(f"kill:target={target},site=publish")

    def test_mixed_families_coexist(self):
        clauses = parse_spec("torn;flip:prob=0.5;flaky:fails=1")
        assert len(clauses) == 3
        assert len(storage_clauses(clauses)) == 1


class TestFoldIntoNothing:
    """Storage clauses must never reach any result-cache key."""

    def test_memory_spec_ignores_storage_clauses(self, monkeypatch):
        _activate(monkeypatch, "torn:target=cache;eio:target=trace;kill:site=trace.publish")
        assert active_memory_spec() == ""

    def test_memory_spec_keeps_memory_clauses_only(self, monkeypatch):
        _activate(monkeypatch, "torn:target=cache;flip:prob=0.001,seed=7")
        assert active_memory_spec() == "flip:prob=0.001,seed=7"

    def test_technique_disk_key_unchanged_by_storage_faults(self, monkeypatch):
        def key():
            return technique_disk_key(
                "fluidanimate", Mode.LVA, None, 0, 0, True, (),
                fault_spec=active_memory_spec(),
            )

        monkeypatch.delenv(INJECT_ENV, raising=False)
        clean = key()
        _activate(monkeypatch, "torn;enospc;rename;corrupt;trunc;fsync;eio;kill")
        assert key() == clean
        assert fsfaults.storage_spec_is_foldable([clean])


class TestSelectors:
    def test_target_selects_subsystem(self, monkeypatch):
        _activate(monkeypatch, "enospc:target=trace")
        # cache site untouched, trace site raises
        assert fsfaults.on_write("cache.entry.write", "x", b"abc") == b"abc"
        with pytest.raises(OSError) as excinfo:
            fsfaults.on_write("trace.column.write", "x", b"abc")
        assert excinfo.value.errno == errno.ENOSPC

    def test_site_substring_match(self, monkeypatch):
        _activate(monkeypatch, "eio:site=meta.read")
        fsfaults.on_read("trace.column.read", "x")  # no match
        with pytest.raises(OSError):
            fsfaults.on_read("trace.meta.read", "x")

    def test_path_substring_match(self, monkeypatch):
        _activate(monkeypatch, "torn:path=addr.npy")
        assert fsfaults.on_write("trace.column.write", "/t/value.npy", b"abcd") == b"abcd"
        assert fsfaults.on_write("trace.column.write", "/t/addr.npy", b"abcd") == b"ab"

    def test_at_count_window_is_deterministic(self, monkeypatch):
        _activate(monkeypatch, "eio:at=2,count=1")
        fsfaults.on_read("cache.entry.read", "p")  # occurrence 1: no fire
        with pytest.raises(OSError):
            fsfaults.on_read("cache.entry.read", "p")  # occurrence 2: fires
        fsfaults.on_read("cache.entry.read", "p")  # occurrence 3: window over
        # identical schedule after a counter reset
        fsfaults.reset_counters()
        fsfaults.on_read("cache.entry.read", "p")
        with pytest.raises(OSError):
            fsfaults.on_read("cache.entry.read", "p")


class TestWriteMangling:
    def test_torn_keeps_prefix(self, monkeypatch):
        _activate(monkeypatch, "torn:frac=0.25")
        assert fsfaults.on_write("cache.entry.write", "x", b"12345678") == b"12"

    def test_fsync_zeroes_tail_keeping_length(self, monkeypatch):
        _activate(monkeypatch, "fsync:frac=0.5")
        out = fsfaults.on_write("cache.entry.write", "x", b"12345678")
        assert out == b"1234\x00\x00\x00\x00"

    def test_corrupt_flips_exactly_one_byte(self, monkeypatch):
        _activate(monkeypatch, "corrupt:offset=3,xor=1")
        out = fsfaults.on_write("cache.entry.write", "x", b"\x00" * 8)
        assert out.count(b"\x01") == 1 and out[3] == 1

    def test_rename_hook_raises(self, monkeypatch):
        _activate(monkeypatch, "rename:target=cache")
        with pytest.raises(OSError):
            fsfaults.on_rename("cache.entry.rename", "x")
        fsfaults.on_rename("trace.entry.rename", "x")  # other subsystem clean

    def test_no_spec_is_identity(self, monkeypatch):
        monkeypatch.delenv(INJECT_ENV, raising=False)
        data = b"payload"
        assert fsfaults.on_write("cache.entry.write", "x", data) is data
        fsfaults.on_read("cache.entry.read", "x")
        fsfaults.on_rename("cache.entry.rename", "x")
        fsfaults.crash_point("cache.publish.pre_rename")


class TestDamagePublished:
    def test_trunc_shortens_published_file(self, monkeypatch, tmp_path):
        target = tmp_path / "entry.pkl"
        target.write_bytes(b"A" * 100)
        _activate(monkeypatch, "trunc:frac=0.3")
        fsfaults.damage_published("cache.entry.published", target)
        assert target.read_bytes() == b"A" * 30

    def test_corrupt_hits_selected_file_in_directory(self, monkeypatch, tmp_path):
        entry = tmp_path / "entry"
        entry.mkdir()
        (entry / "addr.npy").write_bytes(b"B" * 10)
        (entry / "value.npy").write_bytes(b"B" * 10)
        _activate(monkeypatch, "corrupt:site=published,path=addr.npy")
        fsfaults.damage_published("trace.entry.published", entry)
        assert (entry / "addr.npy").read_bytes() != b"B" * 10
        assert (entry / "value.npy").read_bytes() == b"B" * 10


class TestCrashPoint:
    def test_kill_fires_at_matching_site_only(self, monkeypatch):
        exits = []
        monkeypatch.setattr(fsfaults.os, "_exit", lambda status: exits.append(status))
        _activate(monkeypatch, "kill:site=cache.publish.pre_rename")
        fsfaults.crash_point("cache.publish.pre_write")
        fsfaults.crash_point("trace.publish.pre_rename")
        assert exits == []
        fsfaults.crash_point("cache.publish.pre_rename")
        assert exits == [fsfaults.KILL_EXIT_STATUS]

    def test_exit_statuses_are_distinct(self):
        assert fsfaults.KILL_EXIT_STATUS != faults.CRASH_EXIT_STATUS

    def test_all_crash_points_reachable_by_site_selector(self):
        for site in fsfaults.CRASH_POINTS:
            clauses = parse_spec(f"kill:site={site}")
            assert storage_clauses(clauses)[0].get("site") == site
