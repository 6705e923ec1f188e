"""The persistent on-disk result cache (repro.experiments.diskcache)."""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.core.config import ApproximatorConfig
from repro.experiments import common, diskcache
from repro.experiments.common import (
    TechniqueResult,
    fullsystem_point,
    point_disk_key,
    precise_point,
    run_precise_reference,
    run_technique,
    technique_point,
)
from repro.sim.tracesim import Mode

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _fig4_key() -> str:
    """The disk key of one real Figure 4 sweep point."""
    return diskcache.point_key(
        "technique",
        workload="blackscholes",
        mode=Mode.LVA,
        config=ApproximatorConfig(ghb_size=2),
        prefetch_degree=4,
        seed=0,
        small=True,
        params=(),
    )


class TestKeys:
    def test_key_is_stable_across_processes(self):
        """Same point ⇒ same key from a fresh interpreter (no PYTHONHASHSEED
        dependence, no id()/repr-address leakage through the hash)."""
        script = (
            "from repro.experiments import diskcache\n"
            "from repro.core.config import ApproximatorConfig\n"
            "from repro.sim.tracesim import Mode\n"
            "print(diskcache.point_key('technique', workload='blackscholes',"
            " mode=Mode.LVA, config=ApproximatorConfig(ghb_size=2),"
            " prefetch_degree=4, seed=0, small=True, params=()))\n"
        )
        env = dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONHASHSEED="12345")
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert completed.stdout.strip() == _fig4_key()

    def test_key_distinguishes_every_component(self):
        base = _fig4_key()
        variants = [
            diskcache.point_key(
                "precise",
                workload="blackscholes",
                mode=Mode.LVA,
                config=ApproximatorConfig(ghb_size=2),
                prefetch_degree=4,
                seed=0,
                small=True,
                params=(),
            ),
            diskcache.point_key(
                "technique",
                workload="canneal",
                mode=Mode.LVA,
                config=ApproximatorConfig(ghb_size=2),
                prefetch_degree=4,
                seed=0,
                small=True,
                params=(),
            ),
            diskcache.point_key(
                "technique",
                workload="blackscholes",
                mode=Mode.LVP,
                config=ApproximatorConfig(ghb_size=2),
                prefetch_degree=4,
                seed=0,
                small=True,
                params=(),
            ),
            diskcache.point_key(
                "technique",
                workload="blackscholes",
                mode=Mode.LVA,
                config=ApproximatorConfig(ghb_size=4),
                prefetch_degree=4,
                seed=0,
                small=True,
                params=(),
            ),
            diskcache.point_key(
                "technique",
                workload="blackscholes",
                mode=Mode.LVA,
                config=ApproximatorConfig(ghb_size=2),
                prefetch_degree=4,
                seed=1,
                small=True,
                params=(),
            ),
            diskcache.point_key(
                "technique",
                workload="blackscholes",
                mode=Mode.LVA,
                config=ApproximatorConfig(ghb_size=2),
                prefetch_degree=4,
                seed=0,
                small=False,
                params=(),
            ),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_keys_are_pinned(self):
        """Literal keys of one point of each kind and of one trace capture.

        The other key tests compare keys with each other, so moving a
        class a key canonicalizes (``Mode``, ``ApproximatorConfig``) or
        changing a key's components would re-key every cache entry
        without failing them; it fails here.
        """
        assert point_disk_key(technique_point("canneal", Mode.LVA, small=True)) == (
            "c91aff82701c2b1c02742d36290917bf72191dd62d81e1c1dc729285286b77e2"
        )
        assert point_disk_key(precise_point("canneal", small=True)) == (
            "389c86c9d91021edb5bf80ad35c40f87fd7566828d50192e2c4c4ec4ca6a254e"
        )
        replay = fullsystem_point(
            "canneal", ApproximatorConfig(approximation_degree=4), small=True
        )
        assert point_disk_key(replay) == (
            "1a632834c0d580817ca5dc3cf036434a981f54ed43c95499fe54372179b694f7"
        )
        assert common.trace_disk_key("canneal", 0, True) == (
            "54ea5daa75abc96ca8a1a14ac6bfe35d92fbf043c5567f41df952614fece37ef"
        )

    def test_schema_version_invalidates_keys(self, monkeypatch):
        """Bumping SCHEMA_VERSION must orphan every existing entry."""
        old = _fig4_key()
        monkeypatch.setattr(diskcache, "SCHEMA_VERSION", diskcache.SCHEMA_VERSION + 1)
        assert _fig4_key() != old


class TestDiskCache:
    def test_round_trip(self, disk_cache):
        disk_cache.put("ab" * 32, {"payload": [1.5, float("inf")]})
        assert disk_cache.get("ab" * 32) == {"payload": [1.5, float("inf")]}
        assert len(disk_cache) == 1

    def test_miss_returns_none(self, disk_cache):
        assert disk_cache.get("cd" * 32) is None
        assert disk_cache.stats.misses == 1

    def test_corrupt_entry_heals(self, disk_cache):
        key = "ef" * 32
        disk_cache.put(key, {"ok": True})
        path = disk_cache._path(key)
        path.write_bytes(b"\x80\x05 definitely not a pickle")
        assert disk_cache.get(key) is None
        assert not path.exists()
        disk_cache.put(key, {"ok": True})
        assert disk_cache.get(key) == {"ok": True}

    def test_no_cache_env_disables_layer(self, disk_cache, monkeypatch):
        monkeypatch.setenv(diskcache.NO_CACHE_ENV, "1")
        assert diskcache.active_cache() is None

    def test_reset_caches_clears_disk_layer(self, disk_cache):
        run_precise_reference("blackscholes", small=True)
        assert len(disk_cache) == 1
        assert common._RESULTS
        common.reset_caches()
        assert len(disk_cache) == 0
        assert not common._RESULTS
        assert common.COMPUTE_COUNTERS["precise_computed"] == 0


class TestResultCaching:
    def test_cached_technique_result_matches_fresh(self, disk_cache):
        """A fig4 point served from disk is bitwise-equal to recomputing.

        Clearing the in-memory caches between the two calls simulates a
        brand-new process finding only the disk layer warm.
        """
        config = ApproximatorConfig(ghb_size=2)
        fresh = run_technique("blackscholes", Mode.LVA, config=config, small=True)
        assert common.COMPUTE_COUNTERS["technique_computed"] == 1

        common._RESULTS.clear()
        cached = run_technique("blackscholes", Mode.LVA, config=config, small=True)

        assert common.COMPUTE_COUNTERS["technique_computed"] == 1  # not recomputed
        assert common.COMPUTE_COUNTERS["technique_disk_hits"] == 1
        assert isinstance(cached, TechniqueResult)
        assert cached is not fresh
        assert dataclasses.asdict(cached) == dataclasses.asdict(fresh)

    def test_precise_reference_served_from_disk(self, disk_cache):
        first = run_precise_reference("blackscholes", small=True)
        common._RESULTS.clear()
        second = run_precise_reference("blackscholes", small=True)
        assert common.COMPUTE_COUNTERS["precise_computed"] == 1
        assert common.COMPUTE_COUNTERS["precise_disk_hits"] == 1
        assert second.mpki == first.mpki
        assert second.instructions == first.instructions
        assert second.output == first.output

    def test_wrong_record_type_is_ignored(self, disk_cache, monkeypatch):
        """A technique key holding junk must fall through to computing."""
        config = ApproximatorConfig(ghb_size=2)
        key = _fig4_key()
        disk_cache.put(key, {"not": "a TechniqueResult"})
        result = run_technique("blackscholes", Mode.LVA, config=config, small=True)
        assert isinstance(result, TechniqueResult)
        assert common.COMPUTE_COUNTERS["technique_computed"] == 1

    def test_replay_result_pickled_under_its_old_module_loads(self):
        """Entries written before ``FullSystemResult`` moved to
        ``repro.fullsystem.result`` name it by ``repro.fullsystem.system``,
        which re-exports it, so they still load as the same type."""
        result = common.failed_fullsystem_result("stub")
        new = pickle.dumps(result)
        old = new.replace(b"repro.fullsystem.result", b"repro.fullsystem.system")
        assert old != new
        loaded = pickle.loads(old)
        assert isinstance(loaded, common.RESULT_TYPES["fullsystem"])
        assert loaded.failure == "stub"
