"""The sweep points each driver declares by dry-running its render.

The counts and digests below were computed from the hand-written point
lists the drivers carried before their renders became the one place a
grid is stated, so they pin that the declaring pass asks the engine for
exactly the same work: per driver, how many points, and a SHA-256 over
their sorted disk keys (the order of a render's calls may differ).
"""

from __future__ import annotations

import hashlib
import math

import pytest

from repro.energy.model import EnergyBreakdown
from repro.experiments import common, fig1, fig10, runner, tracestore
from repro.experiments.common import (
    failed_fullsystem_result,
    failed_precise_reference,
    point_disk_key,
    precise_point,
)
from repro.experiments.sweep import _backfill
from repro.fullsystem.result import FullSystemResult

#: name -> ((count, digest) at --small, (count, digest) at full scale), seed 0.
DECLARED = {
    "table1": (
        (7, "b03dffabf9e7c7b7b07aaccb2df1b594d317894fad77ffb297237b8246b2462b"),
        (7, "f99f072a13416fa225425a5bfc81c856e9e48c2fce11ca99a929c4758ac379b6"),
    ),
    "fig1": (
        (1, "2cb8bba9a43d3ba3f9ff9a7b2060e67c86c4b333ed3fb248cbdbd42321d2dfca"),
        (1, "8da86e186583f178b8f3b0154ff513dc42b47803ff544611bd4bf6528148fa48"),
    ),
    "fig4": (
        (56, "937ab031dcbebaca247c9b31e4be1c9fe2f052708005184d406b178b5e8aa703"),
        (56, "376312db4026d5b40d8eead96b020bcc30cdf93d77b49503c2f06f1b8f6a339d"),
    ),
    "fig5": (
        (28, "eb28205017cf388089c3a0d65642b5a4b75a66dd2016fc5c60a597d6c8592339"),
        (28, "896e41eee6aca20094a3a1ac4926bfd7ede236777b560a72ad36b9171f687366"),
    ),
    "fig6": (
        (35, "537612b1b41daa118db369b8d3d4ee4a6e7c811355430654ae28ce0a917b0022"),
        (35, "21bc7ef37f847757e0e8c3c8b4f842af949e9b53d9446464ea9a5b7b0d74030c"),
    ),
    "fig7": (
        (28, "900a45ae63bdc7a29cd1b6dc6dfcf4b6f26d5100a3eb25bd86118cadf253394a"),
        (28, "58b5565ca9320f823921e70b0f0e9a81aef5a9e17c9b57d6ba3abb8c1d4ced71"),
    ),
    "fig8": (
        (56, "100cd7d7879c169656ec0a86027a82333344aa5474fc47b60d887f9e8b24d281"),
        (56, "b891fbe4dd4c956789c3bbae883e75ad295652a86781fd35318855bce0c7a5b4"),
    ),
    "fig9": (
        (35, "e84c4291dfd95e770dd08e24e8929e7f565c364bc8d7d30cd4e4f14d21f9062c"),
        (35, "df29d2e1037344767a6ab677e21d1c18d13c5125de85d2045494ac963a030b87"),
    ),
    "fig10": (
        (42, "caaf73daa8a7fbd883fc53997566abd0e942ae0387ccb9176ff7eab1187e7687"),
        (42, "eabdc1bcf67c9cba6fa1e4b9a1c003cc6c586357a935b022e6575533a6318c3a"),
    ),
    "fig11": (
        (42, "caaf73daa8a7fbd883fc53997566abd0e942ae0387ccb9176ff7eab1187e7687"),
        (42, "eabdc1bcf67c9cba6fa1e4b9a1c003cc6c586357a935b022e6575533a6318c3a"),
    ),
    "fig12": (
        (7, "b03dffabf9e7c7b7b07aaccb2df1b594d317894fad77ffb297237b8246b2462b"),
        (7, "f99f072a13416fa225425a5bfc81c856e9e48c2fce11ca99a929c4758ac379b6"),
    ),
    "fig13": (
        (5, "1c3524aedea58121c06efc99eaa67f6c394c058ab007dc64d0661c1c27ec96e3"),
        (5, "24a7c394373077754dad1ae8d955e912efc6e6dc9efa4bff2812ff86e95c5974"),
    ),
    "fig_predictors": (
        (28, "21bd656749d64b98ec317d278f948003a1b178ab6e85c40624804b0294387865"),
        (28, "817a6b9ff126b3be272800207495972f9ecc132a587f0bf7fedf72eb96d8a8be"),
    ),
    "ablate-table-size": (
        (35, "43c3d96ca71f7bd4af4e9e0f9c3fa265ffd152e7f0237f191f5baea485e6ff10"),
        (35, "707e09799726bb8902d69329955b9193c03a2fa6b0a8c72b27784cd613805ca0"),
    ),
    "ablate-lhb-size": (
        (28, "d9c43e9990690e221f4347f19ebe84d9cbe850d8b2aa742543baee8059cb4a0f"),
        (28, "5b9c46eb5134733aa18cef08d1125a4c28e1a969fcf9cc0895ed0d887da6b6e3"),
    ),
    "ablate-compute-fn": (
        (28, "81246875c732d9c8fe8c9cbac0c1decd90eab45ddc929fc5b931a898c8bbd1f9"),
        (28, "e7733cd1990c44ff28203733e0f0758e8db51672194cac58f2d4350e6cf0d765"),
    ),
    "ablate-int-confidence": (
        (6, "a20ee3b85aca6947b0cf007e6a2181db1a9c47650e8b6a324347edecacc8a39d"),
        (6, "f56680ad07f50bed06624a66c48c9385b659fc7d099d9c468cd1e4be489e7530"),
    ),
    "ablate-confidence-steps": (
        (21, "87ec5ec5c678575c0bf9b2801768833b12d22520b2299eb93b9e829e08a78040"),
        (21, "b6d021699cc01b683e891e4dd4d2d4608858512458658ebfb87cfd9597ceb322"),
    ),
    "ablate-sensitivity": (
        (39, "9a01867cb9099f85c1f3d0225d493e63caa06bde76388e902587751094888f42"),
        (52, "6c0759cc26c979e21415a154502a15a504516b2a23becbb47a89c7fd02393739"),
    ),
    "ablate-memory-faults": (
        (21, "762759b7b9aff541611fb565a6ed0dc7e6f1e22a29f7546bdd98bcce0f31199d"),
        (21, "477b444685a7d461fa33bfdf49e50a1cbbf70d50f31d95e6f665c37c2ba1f958"),
    ),
}

#: The experiments of perfbench's two workloads.
PHASE2 = ["table2", "fig10", "fig11", "ablate-noc-model"]
PHASE1 = [name for name in runner.DRIVERS if name not in PHASE2]


def test_every_swept_driver_is_pinned():
    assert sorted(DECLARED) == sorted(runner.POINTS)


@pytest.mark.parametrize("small", [True, False], ids=["small", "full"])
@pytest.mark.parametrize("name", sorted(DECLARED))
def test_declared_points_match_pin(name, small):
    points = runner.DRIVERS[name].points(small=small, seed=0)
    keys = sorted(point_disk_key(point) for point in points)
    digest = hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()
    assert (len(points), digest) == DECLARED[name][0 if small else 1]


def test_gather_points_totals():
    assert len(runner.gather_points(PHASE1, True, 0, 1)) == 464
    assert len(runner.gather_points(PHASE2, True, 0, 1)) == 84


def test_declaring_leaves_no_trace(disk_cache):
    """Declaring reads no cache, writes none, computes and counts nothing."""
    store = tracestore.active_store()
    assert store is not None
    assert runner.gather_points(list(runner.DRIVERS), True, 0, 1)
    assert runner.gather_points(list(runner.DRIVERS), False, 0, 1)
    assert common._RESULTS == {}
    assert not common.COMPUTE_COUNTERS
    assert len(disk_cache) == 0
    assert disk_cache.stats.as_dict() == {"hits": 0, "misses": 0, "stores": 0}
    assert len(store) == 0
    assert common._DECLARED is None


def test_declaring_stops_recording_when_the_render_raises(fresh_results):
    def broken(small=False, seed=0):
        common.run_precise_reference("canneal", seed=seed, small=small)
        raise RuntimeError("render bug")

    with pytest.raises(RuntimeError):
        common.Driver(name="broken", render_fn=broken).points(small=True)
    assert common._DECLARED is None


def test_unswept_driver_declares_without_rendering():
    def render(small=False, seed=0):
        raise AssertionError("an unswept driver must not render to declare")

    assert common.Driver(name="whole", render_fn=render, swept=False).points() == []


def test_fig1_renders_failed_summary_when_its_baseline_failed(fresh_results):
    _backfill(precise_point("bodytrack", small=True), failed_precise_reference("boom"))
    result = fig1.DRIVER.render(small=True)
    assert list(result.series) == ["summary"]
    assert sorted(result.series["summary"]) == [
        "coverage",
        "effective_mpki",
        "output_error",
    ]
    assert all(math.isnan(value) for value in result.series["summary"].values())
    assert "FAILED" in result.format_table()


def _replay(cycles: float, energy_nj: float) -> FullSystemResult:
    """A full-system result with only the fields Figure 10 reads set."""
    return FullSystemResult(
        cycles=cycles,
        instructions=1000,
        loads=100,
        raw_misses=10,
        covered_misses=0,
        fetches=10,
        l2_accesses=10,
        memory_accesses=10,
        noc_flit_hops=0,
        approximator_accesses=0,
        total_miss_latency=1000.0,
        energy=EnergyBreakdown(l1_nj=energy_nj),
    )


def test_fig10_renders_a_failed_replay_as_failed(fresh_results):
    """A failed LVA replay reads FAILED, not an energy figure, and the
    column average leaves it out."""
    failed = common.fullsystem_point("canneal", fig10._config(4), small=True)
    for point in fig10.DRIVER.points(small=True):
        if point == failed:
            result = failed_fullsystem_result("boom")
        elif point.approximate:
            result = _replay(cycles=90.0, energy_nj=80.0)
        else:
            result = _replay(cycles=100.0, energy_nj=100.0)
        _backfill(point, result)

    table = fig10.DRIVER.render(small=True)

    assert math.isnan(table.series["speedup-approx-4"]["canneal"])
    assert math.isnan(table.series["energy-approx-4"]["canneal"])
    assert table.average("energy-approx-4") == pytest.approx(0.2)
    assert table.average("speedup-approx-4") == pytest.approx(100 / 90 - 1)
    rows = table.format_table().splitlines()
    canneal = next(row for row in rows if row.startswith("canneal"))
    assert canneal.split().count("FAILED") == 2
