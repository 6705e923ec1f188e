"""Microbenchmarks of the columnar trace engine.

The workload trace is captured ONCE at module scope (capture is the
expensive step the trace store exists to amortise); the benchmarks then
time the packed-path primitives in isolation: pack/unpack conversion,
``event_tuples``, trace-store round-trips, and full-system replay
throughput.
"""

import numpy as np
import pytest

from repro.core.config import ApproximatorConfig
from repro.experiments import tracestore
from repro.fullsystem import FullSystemConfig, FullSystemSimulator
from repro.sim.trace import LoadEvent, Trace


def _synthetic_trace(n: int = 8192) -> Trace:
    rng = np.random.default_rng(7)
    return Trace(
        [
            LoadEvent(
                tid=i % 4,
                pc=0x400 + 4 * (i % 64),
                addr=int(rng.integers(0, 1 << 20)) & ~63,
                value=float(rng.normal(50, 5)) if i % 2 else int(rng.integers(0, 1 << 30)),
                is_float=bool(i % 2),
                approximable=bool(i % 3),
                gap=int(rng.integers(0, 12)),
                is_store=(i % 17 == 0),
            )
            for i in range(n)
        ]
    )


@pytest.fixture(scope="module")
def captured():
    """One real workload capture, shared by every benchmark here."""
    from repro import Mode, TraceRecorder, TraceSimulator, get_workload

    recorder = TraceRecorder()
    sim = TraceSimulator(Mode.PRECISE, recorder=recorder)
    get_workload("canneal", small=False).execute(sim, 0)
    sim.finish()
    return recorder.trace


def test_pack_throughput(benchmark, captured):
    benchmark(captured.pack)


def test_unpack_throughput(benchmark, captured):
    packed = captured.pack()
    benchmark(packed.to_trace)


def test_event_tuples_throughput(benchmark, captured):
    packed = captured.pack()
    benchmark(packed.event_tuples)


def test_store_put_get_round_trip(benchmark, tmp_path):
    packed = _synthetic_trace().pack()
    store = tracestore.TraceStore(directory=tmp_path / "traces")
    counter = iter(range(10**9))

    def round_trip():
        key = f"{next(counter):064d}"
        store.put(key, packed)
        return store.get(key)

    loaded = benchmark(round_trip)
    assert loaded is not None and len(loaded) == len(packed)


def test_store_warm_get(benchmark, tmp_path):
    """Mapping an existing entry — the per-worker cost in a warm sweep."""
    packed = _synthetic_trace().pack()
    store = tracestore.TraceStore(directory=tmp_path / "traces")
    key = "ab" + "0" * 62
    store.put(key, packed)
    loaded = benchmark(lambda: store.get(key))
    assert loaded is not None


def test_fullsystem_packed_replay_throughput(benchmark, captured):
    packed = captured.pack()
    config = FullSystemConfig(
        approximate=True, approximator=ApproximatorConfig(approximation_degree=4)
    )

    def replay():
        return FullSystemSimulator(config).run(packed)

    result = benchmark(replay)
    assert result.loads > 0
