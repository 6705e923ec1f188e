"""Replay equivalence pins over the phase-1 design space.

These pins were written for the columnar replay kernels, which are gone:
:meth:`TraceSimulator.replay` has one interpreter left, the packed-tuple
loop. The test names are kept. Every pin now holds that loop to the object
reference (:func:`tests.sim.reference.object_replay`, the same ``Trace``
event objects fed through the workload-facing ``MemoryFrontend`` API):
same ``SimulationStats``, same cache counters, same technique state, on
all workloads × modes, approximation degrees, registry predictors and
prefetchers.
"""

from __future__ import annotations

import pytest

from repro import (
    ApproximatorConfig,
    Mode,
    TraceRecorder,
    TraceSimulator,
    get_workload,
)
from repro.experiments.common import BASELINE_WORKLOADS
from repro.sim.trace import Trace
from tests.sim.reference import object_replay

MODES = [Mode.PRECISE, Mode.LVA, Mode.LVP, Mode.PREFETCH]


@pytest.fixture(scope="module")
def traces():
    """One small captured trace (with stores) per baseline workload."""
    captured = {}
    for name in BASELINE_WORKLOADS:
        recorder = TraceRecorder(record_stores=True)
        sim = TraceSimulator(Mode.PRECISE, recorder=recorder)
        get_workload(name, small=True).execute(sim, 3)
        sim.finish()
        captured[name] = recorder.trace
    return captured


def _assert_same_lva_tables(a_tech, b_tech):
    assert a_tech.stats == b_tech.stats
    assert a_tech.allocated_entries == b_tech.allocated_entries
    assert list(a_tech.ghb) == list(b_tech.ghb)
    for index, entry in a_tech._table.items():
        other = b_tech._table[index]
        assert entry.tag == other.tag
        assert entry.confidence.value == other.confidence.value
        assert entry.degree_counter == other.degree_counter
        assert list(entry.lhb) == list(other.lhb)


def assert_same_state(a_sim, b_sim):
    """Equality beyond SimulationStats: cache + technique counters."""
    assert a_sim.l1.stats == b_sim.l1.stats
    assert a_sim.instructions == b_sim.instructions
    for attr in ("approximator", "predictor"):
        a_tech, b_tech = getattr(a_sim, attr), getattr(b_sim, attr)
        assert (a_tech is None) == (b_tech is None)
        if a_tech is not None:
            _assert_same_lva_tables(a_tech, b_tech)
    g_a, g_b = a_sim.generic_predictor, b_sim.generic_predictor
    assert (g_a is None) == (g_b is None)
    if g_a is not None:
        assert g_a.stats == g_b.stats
        assert g_a.allocated_entries == g_b.allocated_entries
        if hasattr(g_a, "_l2"):  # clp: modelled-L2 contents in LRU order
            assert list(g_a._l2) == list(g_b._l2)
            assert {i: (e.tag, list(e.levels)) for i, e in g_a._table.items()} == {
                i: (e.tag, list(e.levels)) for i, e in g_b._table.items()
            }
        if hasattr(g_a, "_chooser"):  # hybrid: chooser + both components
            assert g_a._chooser == g_b._chooser
            _assert_same_lva_tables(g_a.lva, g_b.lva)
            assert g_a.lvp.stats == g_b.lvp.stats
    pf_a, pf_b = a_sim.prefetcher, b_sim.prefetcher
    assert (pf_a is None) == (pf_b is None)
    if pf_a is not None:
        assert pf_a.stats == pf_b.stats


def assert_matches_reference(trace, make_sim):
    """Replay ``trace`` packed on one fresh simulator and through the
    object reference on another; both must end in the same state."""
    sim, ref_sim = make_sim(), make_sim()
    stats = sim.replay(trace.pack())
    assert stats == object_replay(ref_sim, trace)
    assert_same_state(sim, ref_sim)
    return stats, sim


def _sim(mode, config=None):
    return lambda: TraceSimulator(mode, approximator_config=config)


class TestBitEquality:
    """The acceptance pin: replay == object reference on all workloads × modes."""

    @pytest.mark.parametrize("name", BASELINE_WORKLOADS)
    @pytest.mark.parametrize("mode", MODES)
    def test_vector_matches_object_reference(self, name, mode, traces):
        assert_matches_reference(traces[name], _sim(mode))


class TestDegreeBitEquality:
    """Degree-triggered fetch skips: all workloads × degrees 1-3."""

    @pytest.mark.parametrize("name", BASELINE_WORKLOADS)
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_vector_matches_object(self, name, degree, traces):
        config = ApproximatorConfig(approximation_degree=degree)
        assert_matches_reference(traces[name], _sim(Mode.LVA, config))

    def test_degree_actually_skips_fetches_under_vector(self, traces):
        """Canary: the pins above are vacuous if no fetch was ever skipped."""
        config = ApproximatorConfig(approximation_degree=2)
        sim = TraceSimulator(Mode.LVA, approximator_config=config)
        stats = sim.replay(traces["x264"].pack())
        assert stats.fetches_avoided > 0
        assert sim.approximator.stats.fetches_skipped == stats.fetches_avoided
        assert stats.fetches < stats.raw_misses

    @pytest.mark.parametrize(
        "config",
        [
            ApproximatorConfig(approximation_degree=2, ghb_size=2),
            ApproximatorConfig(approximation_degree=2, value_delay=0),
            ApproximatorConfig(approximation_degree=2, value_delay=9),
            ApproximatorConfig(approximation_degree=2, apply_confidence_to_ints=True),
            ApproximatorConfig(approximation_degree=2, compute_fn="stride"),
            ApproximatorConfig(approximation_degree=2, lhb_size=1),
        ],
    )
    def test_degree_config_sweep(self, config, traces):
        assert_matches_reference(traces["fluidanimate"], _sim(Mode.LVA, config))


class TestPredictorZooBitEquality:
    """Every registry predictor replays bit-identically on all workloads."""

    @pytest.mark.parametrize("name", BASELINE_WORKLOADS)
    @pytest.mark.parametrize("predictor", ["lva", "lvp", "clp", "hybrid"])
    def test_vector_matches_object(self, name, predictor, traces):
        config = ApproximatorConfig(predictor=predictor)
        assert_matches_reference(traces[name], _sim(Mode.PREDICTOR, config))

    def test_hybrid_honors_degree_under_vector(self, traces):
        """Hybrid inherits LVA's fetch skips, still bit-identical."""
        config = ApproximatorConfig(predictor="hybrid", approximation_degree=2)
        stats, _ = assert_matches_reference(
            traces["x264"], _sim(Mode.PREDICTOR, config)
        )
        assert stats.fetches_avoided > 0

    def test_clp_covers_misses_under_vector(self, traces):
        """Canary: correct level predictions count as covered misses."""
        config = ApproximatorConfig(predictor="clp")
        sim = TraceSimulator(Mode.PREDICTOR, approximator_config=config)
        stats = sim.replay(traces["fluidanimate"].pack())
        assert stats.covered_misses > 0
        assert sim.generic_predictor.stats.correct == stats.covered_misses


class TestPrefetchBitEquality:
    """Prefetch fill injection: the real prefetcher drives usefulness flags."""

    def test_prefetch_actually_fires_under_vector(self, traces):
        sim = TraceSimulator(Mode.PREFETCH)
        stats = sim.replay(traces["bodytrack"].pack())
        assert stats.prefetch_fetches > 0
        assert sim.l1.stats.useful_prefetches > 0

    @pytest.mark.parametrize("degree", [1, 8])
    def test_prefetch_degree_sweep(self, degree, traces):
        assert_matches_reference(
            traces["canneal"],
            lambda: TraceSimulator(Mode.PREFETCH, prefetch_degree=degree),
        )

    def test_nextline_prefetcher_matches(self, traces):
        from repro.prefetch.nextline import NextLinePrefetcher

        assert_matches_reference(
            traces["fluidanimate"],
            lambda: TraceSimulator(
                Mode.PREFETCH, prefetcher=NextLinePrefetcher(degree=4)
            ),
        )


class TestContinuationEquality:
    """A second replay on the same simulator continues from the first
    one's caches and tables exactly like the object reference does."""

    @pytest.mark.parametrize("mode", [Mode.LVA, Mode.LVP])
    def test_second_replay_continues_identically(self, mode, traces):
        first, second = traces["swaptions"], traces["blackscholes"]
        reference = TraceSimulator(mode)
        object_replay(reference, first)
        reference_stats = object_replay(reference, second)
        sim = TraceSimulator(mode)
        sim.replay(first.pack())
        stats = sim.replay(second.pack())
        assert stats == reference_stats
        assert_same_state(sim, reference)


class TestObjectTraceInput:
    """A Trace (object) input is packed first and replays identically."""

    def test_vector_replay_accepts_object_trace(self, traces):
        trace = traces["swaptions"]
        reference = object_replay(TraceSimulator(Mode.LVA), trace)
        stats = TraceSimulator(Mode.LVA).replay(Trace(list(trace.events)))
        assert stats == reference
