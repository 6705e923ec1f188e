"""``MemoryFrontend.store_many`` against the per-element ``store()`` loop.

``store_many(region, values)`` is defined as
``store(region.addr(i), values[i], streaming=True)`` for each ``i`` in
order. Two identical front-ends, warmed with the same loads, stores and
prefetched fills, take the span one way each; every observable must
match: the value store, ``instructions``, ``SimulationStats``,
``CacheStats``, every set's blocks with their recency, dirty and
prefetched bits, and the recorded trace. A span longer than the region
must raise ``AddressError`` and leave all of that untouched.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.sim.frontend import PreciseMemory
from repro.sim.trace import TraceRecorder
from repro.sim.tracesim import Mode, TraceSimulator

#: A 1 KB, 2-way L1 (8 sets), so the warm-up evicts and the span's
#: blocks share sets with the other region's.
SMALL_L1 = CacheConfig(size_bytes=1024, associativity=2, block_bytes=64)

FRONTENDS = {
    "precise": lambda recorder: TraceSimulator(Mode.PRECISE, l1_config=SMALL_L1, recorder=recorder),
    "lva": lambda recorder: TraceSimulator(Mode.LVA, l1_config=SMALL_L1, recorder=recorder),
    "prefetch": lambda recorder: TraceSimulator(
        Mode.PREFETCH, l1_config=SMALL_L1, recorder=recorder
    ),
    "functional": lambda recorder: PreciseMemory(recorder=recorder),
}

SPAN_COUNT = 32

warm_ops = st.lists(
    st.tuples(st.sampled_from(["load", "load_approx", "store", "prefetch"]), st.integers(0, 63)),
    max_size=60,
)


def _build(kind, record_stores, itemsize, warm):
    """A front-end with a span region and an other region, both fully
    written, then warmed by ``warm``: ``(op, element)`` pairs over the
    two regions' elements laid end to end."""
    mem = FRONTENDS[kind](TraceRecorder(record_stores=record_stores))
    span = mem.space.alloc("span", SPAN_COUNT, itemsize=itemsize)
    other = mem.space.alloc("other", SPAN_COUNT, itemsize=itemsize)
    for region in (span, other):
        for i in range(SPAN_COUNT):
            mem.store(region.addr(i), i * 0.5)
    for op, element in warm:
        region = span if element < SPAN_COUNT else other
        addr = region.addr(element % SPAN_COUNT)
        if op == "load":
            mem.load(0x400 + element % 4, addr)
        elif op == "load_approx":
            mem.load_approx(0x800 + element % 4, addr)
        elif op == "store":
            mem.store(addr, -element)
        elif isinstance(mem, TraceSimulator):
            mem.l1.fill(addr, prefetched=True)
    return mem, span


def _snapshot(mem) -> dict:
    state = {
        "values": dict(mem.values),
        "instructions": mem.instructions,
        "events": list(mem.recorder.trace.events),
        "gaps": dict(mem.recorder._gaps),
    }
    if isinstance(mem, TraceSimulator):
        l1: SetAssociativeCache = mem.l1
        state["stats"] = mem.stats.as_dict()
        state["static_pcs"] = set(mem.stats.static_approx_pcs)
        state["cache_stats"] = l1.stats.as_dict()
        state["clock"] = l1._clock
        state["sets"] = [
            [(tag, b.last_use, b.dirty, b.prefetched) for tag, b in ways.items()]
            for ways in l1._sets
        ]
    return state


def _values(length: int) -> list:
    return [i * 1.5 if i % 2 else -i for i in range(length)]


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(FRONTENDS)),
    record_stores=st.booleans(),
    itemsize=st.sampled_from([4, 8, 24, 64, 128]),
    warm=warm_ops,
    length=st.integers(0, SPAN_COUNT),
)
# The last element (bytes 48..71) spills into block 1, which element 3
# keeps resident; storing elements 0..2 one by one never invalidates it.
@example(kind="precise", record_stores=False, itemsize=24, warm=[("load", 3)], length=3)
def test_store_many_equals_the_store_loop(kind, record_stores, itemsize, warm, length):
    bulk, bulk_span = _build(kind, record_stores, itemsize, warm)
    loop, loop_span = _build(kind, record_stores, itemsize, warm)
    values = _values(length)

    bulk.store_many(bulk_span, values)
    for i, value in enumerate(values):
        loop.store(loop_span.addr(i), value, streaming=True)

    assert _snapshot(bulk) == _snapshot(loop)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(sorted(FRONTENDS)),
    record_stores=st.booleans(),
    warm=warm_ops,
    length=st.integers(SPAN_COUNT + 1, 2 * SPAN_COUNT),
)
def test_span_longer_than_the_region_raises_and_writes_nothing(
    kind, record_stores, warm, length
):
    mem, span = _build(kind, record_stores, 8, warm)
    before = _snapshot(mem)
    with pytest.raises(AddressError):
        mem.store_many(span, _values(length))
    assert _snapshot(mem) == before


def test_empty_span_is_a_no_op():
    mem, span = _build("lva", True, 8, [("load", 3)])
    before = _snapshot(mem)
    mem.store_many(span, [])
    assert _snapshot(mem) == before


def test_streaming_span_invalidates_each_resident_block_once():
    sim, span = _build("precise", False, 8, [("load", 0), ("load", 9), ("load", 40)])
    invalidations = sim.l1.stats.invalidations
    sim.store_many(span, _values(SPAN_COUNT))
    # Elements 0 and 9 sit in the span's first two blocks; element 40 is
    # in the other region and stays cached.
    assert sim.l1.stats.invalidations == invalidations + 2
    assert not sim.l1.contains(span.addr(0))
    assert not sim.l1.contains(span.addr(9))
    assert sim.stats.stores == 2 * SPAN_COUNT + SPAN_COUNT
