"""Microbenchmarks of the library's hot structures.

Unlike the figure benchmarks (which time whole experiments), these measure
the simulator's own primitives with pytest-benchmark's statistical timing:
approximator lookup+train rounds, cache probes, NoC sends and full-system
event processing. They guard against performance regressions in the paths
every experiment spends its time in.
"""

import numpy as np

from repro.core.approximator import LoadValueApproximator
from repro.core.config import ApproximatorConfig
from repro.core.hashing import context_hash
from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.noc.network import MeshNetwork
from repro.sim.trace import LoadEvent, Trace
from repro.fullsystem import FullSystemConfig, FullSystemSimulator


def test_approximator_miss_train_round(benchmark):
    approx = LoadValueApproximator(ApproximatorConfig())
    values = np.random.default_rng(0).normal(100, 3, 256).tolist()

    def round_trip():
        for i, value in enumerate(values):
            decision = approx.on_miss(0x400 + 4 * (i % 16), True)
            if decision.token is not None:
                approx.train(decision.token, value)

    benchmark(round_trip)


def test_context_hash_with_ghb(benchmark):
    ghb_values = [1.5, 2.25, 3.125, 4.0625]

    def hash_many():
        for pc in range(0x400, 0x800, 4):
            context_hash(pc, ghb_values, 9, 21, mantissa_drop_bits=8)

    benchmark(hash_many)


def test_cache_probe_throughput(benchmark):
    cache = SetAssociativeCache(CacheConfig(size_bytes=64 * 1024, associativity=8))
    addrs = np.random.default_rng(0).integers(0, 1 << 20, 1024).tolist()
    for addr in addrs:
        cache.fill(addr)

    def probe():
        for addr in addrs:
            cache.probe(addr)

    benchmark(probe)


def test_cache_fill_evict_throughput(benchmark):
    cache = SetAssociativeCache(CacheConfig(size_bytes=8 * 1024, associativity=4))
    addrs = np.random.default_rng(1).integers(0, 1 << 22, 2048).tolist()

    def churn():
        for addr in addrs:
            cache.fill(addr)

    benchmark(churn)


def test_noc_send_throughput(benchmark):
    net = MeshNetwork()

    def send_many():
        time = 0
        for i in range(512):
            net.send(i % 4, (i + 1) % 4, time, 5)
            time += 3

    benchmark(send_many)


def test_fullsystem_event_throughput(benchmark):
    rng = np.random.default_rng(2)
    events = [
        LoadEvent(
            tid=i % 4, pc=0x400 + 4 * (i % 8),
            addr=int(rng.integers(0, 1 << 20)) & ~63,
            value=float(rng.normal(50, 5)), is_float=True,
            approximable=True, gap=6,
        )
        for i in range(4096)
    ]
    trace = Trace(events)
    config = FullSystemConfig(approximate=True, approximator=ApproximatorConfig())

    def replay():
        FullSystemSimulator(config).run(trace)

    benchmark(replay)
