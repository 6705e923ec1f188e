"""Determinism guarantees: identical seeds must reproduce identical results.

Everything in the library draws randomness through seeded generators, so
simulations are bit-reproducible — the property the whole evaluation's
credibility rests on.
"""

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
from repro.experiments import common, fig12


@pytest.fixture(autouse=True)
def _fresh_caches():
    common.reset_caches()
    yield
    common.reset_caches()


class TestPhase1Determinism:
    @pytest.mark.parametrize("name", ["canneal", "fluidanimate"])
    def test_identical_stats_across_runs(self, name):
        def run():
            sim = TraceSimulator(Mode.LVA)
            get_workload(name, small=True).execute(sim, 5)
            return sim.finish().as_dict()

        assert run() == run()

    def test_different_seeds_differ(self):
        def run(seed):
            sim = TraceSimulator(Mode.LVA)
            get_workload("canneal", small=True).execute(sim, seed)
            return sim.finish().raw_misses

        assert run(1) != run(2)


class TestPhase2Determinism:
    def test_identical_replays(self):
        recorder = TraceRecorder()
        sim = TraceSimulator(Mode.PRECISE, recorder=recorder)
        get_workload("blackscholes", small=True).execute(sim, 5)
        sim.finish()
        config = FullSystemConfig(
            approximate=True, approximator=ApproximatorConfig()
        )
        a = FullSystemSimulator(config).run(recorder.trace)
        b = FullSystemSimulator(config).run(recorder.trace)
        assert a.cycles == b.cycles
        assert a.covered_misses == b.covered_misses
        assert a.energy.total_nj == b.energy.total_nj


class TestExperimentDeterminism:
    def test_driver_reproducible(self):
        first = fig12.DRIVER.render(small=True, seed=3)
        common.reset_caches()
        second = fig12.DRIVER.render(small=True, seed=3)
        assert first.series == second.series
