"""The heap scheduler of ``run()`` against ``replay_events()``' ``min()``.

``run()`` pops the furthest-behind core and keeps stepping it while it
would still be the first minimal core; ``replay_events()`` re-picks with
``min()`` every step. They must agree where the choice is delicate:
clocks that tie, and threads that first appear out of id order (the
tie-break is a core's first appearance, not its id). More threads than
cores fold onto one queue; stores bring invalidations into play.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import ApproximatorConfig
from repro.fullsystem import FullSystemConfig, FullSystemSimulator
from repro.sim.trace import LoadEvent, Trace

CONFIGS = {
    "precise": FullSystemConfig(),
    "lva-degree0": FullSystemConfig(
        approximate=True, approximator=ApproximatorConfig(approximation_degree=0)
    ),
    "lva-degree4": FullSystemConfig(
        approximate=True, approximator=ApproximatorConfig(approximation_degree=4)
    ),
}

#: Threads 3, 1, 2, 0 first appear in that order and load in lockstep.
#: Core clocks tie at every round, so a heap keyed on core id instead of
#: first appearance reorders the NoC traffic and the result.
OUT_OF_ORDER_THREADS = Trace(
    [
        LoadEvent(tid, 0x400 + 4 * tid, 0x10000 + 0x1000 * k + 256 * tid, 1.0, True, True, 4)
        for k in range(6)
        for tid in (3, 1, 2, 0)
    ]
)


#: Six shared blocks, each named at four byte offsets.
ADDRESSES = [0x10000 + 64 * block + offset for block in range(6) for offset in (0, 8, 20, 60)]


def event(tid: int) -> st.SearchStrategy[LoadEvent]:
    """One load or store of ``tid``; gaps repeat, so core clocks tie."""
    return st.builds(
        LoadEvent,
        tid=st.just(tid),
        pc=st.sampled_from([0x400, 0x404, 0x408]),
        addr=st.sampled_from(ADDRESSES),
        value=st.sampled_from([1.0, 1.5, 2.0, 7.0]),
        is_float=st.booleans(),
        approximable=st.booleans(),
        gap=st.sampled_from([0, 0, 4, 8]),
        is_store=st.sampled_from([True, False, False, False, False]),
    )


@st.composite
def traces(draw) -> Trace:
    """1-8 threads whose first appearances come in a shuffled order."""
    threads = draw(st.integers(1, 8))
    order = draw(st.permutations(range(threads)))
    events = [draw(event(tid)) for tid in order]
    events += draw(
        st.lists(st.integers(0, threads - 1).flatmap(event), max_size=40)
    )
    return Trace(events)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@settings(max_examples=60, deadline=None)
@given(trace=traces())
@example(trace=OUT_OF_ORDER_THREADS)
def test_heap_scheduler_matches_min_scheduler(config, trace):
    reference_sim = FullSystemSimulator(CONFIGS[config])
    reference = reference_sim.replay_events(trace)
    sim = FullSystemSimulator(CONFIGS[config])
    result = sim.run(trace.pack())
    assert dataclasses.asdict(result) == dataclasses.asdict(reference)
    assert [core.stats for core in sim.cores] == [core.stats for core in reference_sim.cores]


def test_out_of_order_threads_keep_first_appearance_tie_break():
    result = FullSystemSimulator(FullSystemConfig()).run(OUT_OF_ORDER_THREADS.pack())
    assert result.core_cycles == [178.5, 218.5, 201.5, 218.5]
