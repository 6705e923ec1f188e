"""Full-system store handling and MSI coherence traffic."""

import pytest

from repro.fullsystem import FullSystemConfig, FullSystemSimulator
from repro.sim.frontend import PreciseMemory
from repro.sim.trace import LoadEvent, Trace, TraceRecorder
from repro.sim.tracesim import Mode, TraceSimulator
from repro.workloads.registry import get_workload


def load(tid, addr, gap=5, value=1.0):
    return LoadEvent(tid, 0x400 + 4 * tid, addr, value, True, False, gap)


def store(tid, addr, gap=5):
    return LoadEvent(tid, 0, addr, 0, False, False, gap, is_store=True)


class TestStoreEvents:
    # The directory tracks whole blocks: loads and the store may name any
    # byte of the block, including different ones.
    @pytest.mark.parametrize(
        "load_addr, store_addr",
        [(0x1000, 0x1000), (0x1008, 0x1008), (0x1008, 0x1010)],
        ids=["aligned", "unaligned-same-offset", "unaligned-other-offset"],
    )
    def test_store_to_shared_block_invalidates_remote_copy(self, load_addr, store_addr):
        # Threads replay on independent core clocks, so the reload gets a
        # large gap to guarantee it executes after core 1's store.
        trace = Trace([
            load(0, load_addr),            # core 0 caches the block
            load(1, load_addr),            # core 1 shares it
            store(1, store_addr),          # core 1 writes: invalidate core 0
            load(0, load_addr, gap=4000),  # core 0 must miss again
        ])
        sim = FullSystemSimulator(FullSystemConfig())
        result = sim.run(trace)
        assert result.raw_misses == 3  # two compulsory + one coherence miss
        assert sim.directory.stats.invalidations_sent == 1

    def test_store_hit_keeps_block_and_dirties(self):
        trace = Trace([
            load(0, 0x2000),
            store(0, 0x2000),
            load(0, 0x2000),
        ])
        result = FullSystemSimulator(FullSystemConfig()).run(trace)
        assert result.raw_misses == 1  # the write hit; the re-read hits

    def test_store_miss_does_not_allocate(self):
        trace = Trace([
            store(0, 0x3000),
            load(0, 0x3000),
        ])
        result = FullSystemSimulator(FullSystemConfig()).run(trace)
        assert result.raw_misses == 1  # the load still misses

    def test_stores_do_not_stall(self):
        """A store-only trace finishes at pure issue throughput."""
        events = [store(0, 0x4000 + 64 * i, gap=0) for i in range(100)]
        result = FullSystemSimulator(FullSystemConfig()).run(Trace(events))
        # 100 instructions on a 4-wide core: ~25 cycles.
        assert result.cycles == pytest.approx(25.0, abs=2.0)


class TestRecordedStores:
    def test_recorder_emits_store_events_when_enabled(self):
        recorder = TraceRecorder(record_stores=True)
        mem = PreciseMemory(recorder=recorder)
        region = mem.space.alloc("x", 2)
        mem.store(region.addr(0), 1.0)
        mem.load(0x400, region.addr(0))
        kinds = [event.is_store for event in recorder.trace]
        assert kinds == [True, False]

    def test_default_recorder_folds_stores_into_gaps(self):
        recorder = TraceRecorder()
        mem = PreciseMemory(recorder=recorder)
        region = mem.space.alloc("x", 1)
        mem.store(region.addr(0), 1.0)
        mem.load(0x400, region.addr(0))
        assert len(recorder.trace) == 1
        assert recorder.trace.events[0].gap == 1

    def test_workload_trace_with_stores_replays(self):
        recorder = TraceRecorder(record_stores=True)
        sim = TraceSimulator(Mode.PRECISE, recorder=recorder)
        get_workload("swaptions", small=True).execute(sim, 3)
        sim.finish()
        assert any(event.is_store for event in recorder.trace)
        result = FullSystemSimulator(FullSystemConfig()).run(recorder.trace)
        assert result.cycles > 0
