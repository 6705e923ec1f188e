"""Differential tests: packed replay is bit-identical to the object path.

The packed columnar hot loop in :meth:`FullSystemSimulator.run` must
reproduce the :meth:`FullSystemSimulator.replay_events` reference
interpreter exactly — same scheduling, same stats, same energy — or the
packed loop would silently change the science.
"""

from __future__ import annotations

import pytest

from repro import (
    ApproximatorConfig,
    FullSystemConfig,
    FullSystemSimulator,
    Mode,
    TraceRecorder,
    TraceSimulator,
    get_workload,
)
from repro.experiments.common import BASELINE_WORKLOADS


def capture(name: str, seed: int = 3):
    recorder = TraceRecorder(record_stores=True)
    sim = TraceSimulator(Mode.PRECISE, recorder=recorder)
    get_workload(name, small=True).execute(sim, seed)
    sim.finish()
    return recorder.trace


def assert_results_equal(a, b):
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.loads == b.loads
    assert a.raw_misses == b.raw_misses
    assert a.covered_misses == b.covered_misses
    assert a.fetches == b.fetches
    assert a.l2_accesses == b.l2_accesses
    assert a.memory_accesses == b.memory_accesses
    assert a.noc_flit_hops == b.noc_flit_hops
    assert a.approximator_accesses == b.approximator_accesses
    assert a.total_miss_latency == b.total_miss_latency
    assert a.core_cycles == b.core_cycles
    assert a.energy == b.energy


class TestFullSystemBitEquality:
    @pytest.mark.parametrize("name", BASELINE_WORKLOADS)
    def test_packed_run_matches_object_reference(self, name):
        trace = capture(name)
        reference = FullSystemSimulator(FullSystemConfig()).replay_events(trace)
        packed = FullSystemSimulator(FullSystemConfig()).run(trace.pack())
        assert_results_equal(reference, packed)

    @pytest.mark.parametrize("name", BASELINE_WORKLOADS)
    def test_packed_run_matches_object_reference_with_lva(self, name):
        trace = capture(name)
        config = FullSystemConfig(
            approximate=True,
            approximator=ApproximatorConfig(approximation_degree=4),
        )
        reference = FullSystemSimulator(config).replay_events(trace)
        packed = FullSystemSimulator(config).run(trace.pack())
        assert_results_equal(reference, packed)

    def test_run_accepts_object_trace(self):
        trace = capture("swaptions")
        via_object = FullSystemSimulator(FullSystemConfig()).run(trace)
        via_packed = FullSystemSimulator(FullSystemConfig()).run(trace.pack())
        assert_results_equal(via_object, via_packed)
