"""Storage-fault matrix: never a wrong result under any injected fault.

Every fault class the injector knows (torn write, lost fsync, byte
corruption, truncated published file, ENOSPC, EIO, failed rename) is
driven through the real DiskCache / TraceStore code paths.
The invariant under test is always the same: a damaged entry heals as a
miss (recompute), a failing store degrades loudly (warn-once), and a
sweep under storage chaos converges to results bit-identical to a
fault-free run.
"""

from __future__ import annotations

import warnings

import pytest

from repro import telemetry
from repro.experiments import common, diskcache, fig13, integrity, tracestore
from repro.experiments.sweep import SweepEngine
from repro.faults import fsfaults
from repro.faults.memory import INJECT_ENV
from repro.sim.trace import LoadEvent, Trace

KEY = "ab" + "0" * 62


@pytest.fixture(autouse=True)
def _hermetic_faults(monkeypatch):
    """No spec leaks in or out; fresh fault counters and warn-once state."""
    monkeypatch.delenv(INJECT_ENV, raising=False)
    fsfaults.reset_counters()
    integrity.reset_warnings()
    yield
    fsfaults.reset_counters()
    integrity.reset_warnings()


def _inject(monkeypatch, spec: str) -> None:
    monkeypatch.setenv(INJECT_ENV, spec)
    fsfaults.reset_counters()


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


class TestCacheChaos:
    """DiskCache under every write/read/publish fault."""

    @pytest.mark.parametrize(
        "spec",
        [
            "torn:target=cache",
            "fsync:target=cache,frac=0.3",
            "corrupt:target=cache",
            "trunc:target=cache",
        ],
        ids=["torn", "fsync", "corrupt", "trunc"],
    )
    def test_damaged_entry_heals_as_miss(self, monkeypatch, tmp_path, spec):
        cache = diskcache.DiskCache(directory=tmp_path)
        _inject(monkeypatch, spec)
        cache.put(KEY, {"result": 42})
        monkeypatch.delenv(INJECT_ENV)
        fsfaults.reset_counters()
        assert cache.get(KEY) is None  # never 42-with-damage, never garbage
        assert cache.stats.misses == 1
        # the slot healed: a clean re-put serves
        cache.put(KEY, {"result": 42})
        assert cache.get(KEY) == {"result": 42}

    @pytest.mark.parametrize(
        "spec", ["enospc:target=cache", "eio:target=cache,op=write", "rename:target=cache"],
        ids=["enospc", "eio", "rename"],
    )
    def test_failing_syscalls_degrade_loudly(self, monkeypatch, tmp_path, spec):
        cache = diskcache.DiskCache(directory=tmp_path)
        _inject(monkeypatch, spec)
        with pytest.warns(RuntimeWarning, match="not writable"):
            cache.put(KEY, {"result": 1})
        assert cache._broken  # warn-once no-op mode, like a real full disk
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache.put(KEY, {"result": 1})  # second put: silent no-op
        monkeypatch.delenv(INJECT_ENV)
        assert cache.get(KEY) is None  # nothing half-written survived

    def test_read_eio_is_a_plain_miss(self, monkeypatch, tmp_path):
        cache = diskcache.DiskCache(directory=tmp_path)
        cache.put(KEY, {"result": 7})
        _inject(monkeypatch, "eio:target=cache,op=read,count=1")
        assert cache.get(KEY) is None
        monkeypatch.delenv(INJECT_ENV)
        fsfaults.reset_counters()
        assert cache.get(KEY) == {"result": 7}  # entry itself unharmed

    def test_corruption_bumps_telemetry_counter(self, monkeypatch, tmp_path):
        monkeypatch.setenv(telemetry.TELEMETRY_ENV, "1")
        telemetry.shutdown()
        try:
            cache = diskcache.DiskCache(directory=tmp_path)
            _inject(monkeypatch, "corrupt:target=cache")
            cache.put(KEY, {"x": 1})
            monkeypatch.delenv(INJECT_ENV)
            fsfaults.reset_counters()
            assert cache.get(KEY) is None
            assert telemetry.metrics().counter("storage.corrupt.cache").value == 1
        finally:
            telemetry.shutdown()

    def test_corruption_warns_once_per_subsystem(self, monkeypatch, tmp_path, capsys):
        cache = diskcache.DiskCache(directory=tmp_path)
        _inject(monkeypatch, "corrupt:target=cache")
        cache.put(KEY, {"x": 1})
        cache.put("cd" + "0" * 62, {"y": 2})
        monkeypatch.delenv(INJECT_ENV)
        fsfaults.reset_counters()
        assert cache.get(KEY) is None
        assert cache.get("cd" + "0" * 62) is None
        err = capsys.readouterr().err
        assert err.count("corrupt cache entry detected") == 1


class TestTraceChaos:
    """TraceStore under every write/read/publish fault."""

    @pytest.mark.parametrize(
        "spec",
        [
            "torn:target=trace,op=column.write",
            "fsync:target=trace,op=column.write,frac=0.4",
            "corrupt:target=trace,op=column.write",
            "torn:target=trace,op=meta.write",
            "trunc:target=trace,path=.npy",
            "corrupt:target=trace,site=published",
        ],
        ids=["torn-col", "fsync-col", "corrupt-col", "torn-meta", "trunc-pub", "rot-pub"],
    )
    def test_damaged_entry_heals_as_miss(self, monkeypatch, tmp_path, spec):
        store = tracestore.TraceStore(directory=tmp_path / "traces")
        packed = sample_trace().pack()
        _inject(monkeypatch, spec)
        store.put(KEY, packed)
        monkeypatch.delenv(INJECT_ENV)
        fsfaults.reset_counters()
        assert store.get(KEY) is None  # damaged columns never replayed
        store.put(KEY, packed)
        reloaded = store.get(KEY)
        assert reloaded is not None
        assert reloaded.to_trace().events == sample_trace().events

    @pytest.mark.parametrize(
        "spec",
        ["enospc:target=trace", "eio:target=trace,op=write", "rename:target=trace"],
        ids=["enospc", "eio", "rename"],
    )
    def test_failing_syscalls_degrade_loudly(self, monkeypatch, tmp_path, spec):
        store = tracestore.TraceStore(directory=tmp_path / "traces")
        _inject(monkeypatch, spec)
        with pytest.warns(RuntimeWarning, match="not writable"):
            store.put(KEY, sample_trace().pack())
        assert store._broken
        monkeypatch.delenv(INJECT_ENV)
        assert store.get(KEY) is None

    def test_verify_can_be_disabled(self, monkeypatch, tmp_path):
        """REPRO_STORE_VERIFY=0 skips the per-read CRC pass (perf escape
        hatch); structural validation still rejects mismatched columns."""
        store = tracestore.TraceStore(directory=tmp_path / "traces")
        store.put(KEY, sample_trace().pack())
        monkeypatch.setenv(integrity.VERIFY_ENV, "0")
        assert store.get(KEY) is not None

    def test_counter_and_warn_once(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv(telemetry.TELEMETRY_ENV, "1")
        telemetry.shutdown()
        try:
            store = tracestore.TraceStore(directory=tmp_path / "traces")
            _inject(monkeypatch, "corrupt:target=trace,op=column.write,at=1,count=1")
            store.put(KEY, sample_trace().pack())
            monkeypatch.delenv(INJECT_ENV)
            fsfaults.reset_counters()
            assert store.get(KEY) is None
            assert telemetry.metrics().counter("storage.corrupt.trace").value >= 1
            assert capsys.readouterr().err.count("corrupt trace entry") == 1
        finally:
            telemetry.shutdown()


class TestSweepUnderStorageChaos:
    """The acceptance invariant: chaos-swept tables equal clean tables."""

    @pytest.mark.parametrize(
        "spec",
        [
            "corrupt:target=cache",
            "torn:target=cache,at=2",
            "enospc:target=cache,at=3",
        ],
        ids=["corrupt-every-entry", "torn-from-second", "enospc-from-third"],
    )
    def test_chaos_table_bit_identical_to_clean(self, disk_cache, monkeypatch, spec):
        import os

        _inject(monkeypatch, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = SweepEngine(jobs=1).execute(fig13.DRIVER.points(small=True))
        assert not report.failures  # chaos never fails the science
        chaotic = fig13.DRIVER.render(small=True)
        monkeypatch.delenv(INJECT_ENV)
        fsfaults.reset_counters()

        os.environ[diskcache.CACHE_DIR_ENV] += "-pristine"
        diskcache._ACTIVE = None
        common._RESULTS.clear()
        common._TRACE_CACHE.clear()
        SweepEngine(jobs=1).execute(fig13.DRIVER.points(small=True))
        pristine = fig13.DRIVER.render(small=True)

        assert chaotic.series == pristine.series
