"""Fault-injected trace replays: the fault stream is part of the replay.

The deterministic ``flip``/``drop`` fault stream must perturb the packed
replay exactly as it perturbs the object reference (the same events fed
through the workload-facing API), and must actually change a replay's
outcome (otherwise every faulted pin would be vacuous). A storage-only
``REPRO_INJECT`` spec — torn cache writes, kills mid-publish — must leave a
replay bit-identical to a clean one: storage clauses never reach the
simulated memory system.
"""

from __future__ import annotations

import pytest

from repro import Mode, TraceRecorder, TraceSimulator, get_workload
from repro.faults.memory import INJECT_ENV
from tests.sim.reference import object_replay

WORKLOADS = ["fluidanimate", "swaptions"]
FAULT_SPECS = [
    "flip:prob=0.05,seed=7",
    "drop:prob=0.1,seed=3",
    "flip:prob=0.02,seed=1;drop:prob=0.05,seed=2",
]
MODES = [Mode.LVA, Mode.LVP, Mode.PRECISE]


@pytest.fixture(scope="module")
def traces():
    """Clean captures (fault injection never applies to capture)."""
    captured = {}
    for name in WORKLOADS:
        recorder = TraceRecorder(record_stores=True)
        sim = TraceSimulator(Mode.PRECISE, recorder=recorder)
        get_workload(name, small=True).execute(sim, 3)
        sim.finish()
        captured[name] = recorder.trace
    return captured


def _replay(trace, mode=Mode.LVA):
    sim = TraceSimulator(mode)
    return sim.replay(trace.pack()), sim


def _assert_same_state(a_sim, b_sim):
    assert a_sim.l1.stats == b_sim.l1.stats
    assert a_sim.instructions == b_sim.instructions
    for attr in ("approximator", "predictor"):
        a_tech, b_tech = getattr(a_sim, attr), getattr(b_sim, attr)
        assert (a_tech is None) == (b_tech is None)
        if a_tech is not None:
            assert a_tech.stats == b_tech.stats


class TestFaultedPackedPin:
    """flip/drop replays: packed interpreter == object reference, bit for bit."""

    @pytest.mark.parametrize("spec", FAULT_SPECS)
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("mode", MODES)
    def test_packed_matches_object_under_faults(
        self, workload, mode, spec, traces, monkeypatch
    ):
        monkeypatch.setenv(INJECT_ENV, spec)
        trace = traces[workload]
        ref_sim = TraceSimulator(mode)
        ref_stats = object_replay(ref_sim, trace)
        packed_stats, packed_sim = _replay(trace, mode)
        assert packed_stats == ref_stats
        _assert_same_state(packed_sim, ref_sim)

    def test_faults_actually_perturb_the_replay(self, traces, monkeypatch):
        """Guard against vacuous pins: the spec must change the outcome."""
        trace = traces["fluidanimate"]
        clean_stats, _ = _replay(trace)
        monkeypatch.setenv(INJECT_ENV, "flip:prob=0.5,seed=7")
        faulted_stats, _ = _replay(trace)
        assert faulted_stats != clean_stats

    def test_storage_faults_leave_replay_intact(self, traces, monkeypatch):
        trace = traces["fluidanimate"]
        clean_stats, clean_sim = _replay(trace)
        monkeypatch.setenv(INJECT_ENV, "torn:target=cache;kill:site=cache.publish")
        stats, sim = _replay(trace)
        assert stats == clean_stats
        assert sim.l1.stats == clean_sim.l1.stats
        assert sim.approximator.stats == clean_sim.approximator.stats
