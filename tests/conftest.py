"""Shared fixtures for the test suite."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.config import ApproximatorConfig
from repro.experiments import common, diskcache
from repro.sim.tracesim import Mode, TraceSimulator


@pytest.fixture(autouse=True)
def _no_disk_cache(monkeypatch):
    """Keep tests hermetic: never touch the user's persistent result cache.

    Tests that exercise the disk layer re-enable it by deleting
    ``REPRO_NO_CACHE`` and pointing ``REPRO_CACHE_DIR`` at a tmp_path.
    """
    monkeypatch.setenv(diskcache.NO_CACHE_ENV, "1")


@pytest.fixture
def fresh_results(monkeypatch):
    """An empty result memo and trace LRU, and fresh compute counters.

    Each is swapped for a new object for the test's duration and the
    original put back afterwards, so no result leaks into or out of a
    test. The disk layer stays as the suite left it: disabled.
    """
    monkeypatch.setattr(common, "_RESULTS", {})
    monkeypatch.setattr(common, "_TRACE_CACHE", common._PackedTraceLRU())
    monkeypatch.setattr(common, "COMPUTE_COUNTERS", Counter())


@pytest.fixture
def disk_cache(fresh_results, monkeypatch, tmp_path):
    """A live, empty disk cache in ``tmp_path`` over :func:`fresh_results`.

    Re-enables the layer the suite-wide autouse fixture disables, so
    results really round-trip through disk.
    """
    monkeypatch.delenv(diskcache.NO_CACHE_ENV, raising=False)
    monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.setattr(diskcache, "_DISABLED_OVERRIDE", False)
    monkeypatch.setattr(diskcache, "_ACTIVE", None)
    monkeypatch.setattr(diskcache, "_ACTIVE_DIR", None)
    cache = diskcache.active_cache()
    assert cache is not None
    return cache


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for tests needing randomness."""
    return np.random.default_rng(1234)


@pytest.fixture
def baseline_config() -> ApproximatorConfig:
    """The Table II baseline approximator configuration."""
    return ApproximatorConfig()


@pytest.fixture
def lva_sim() -> TraceSimulator:
    """A phase-1 simulator in LVA mode with baseline settings."""
    return TraceSimulator(Mode.LVA)


@pytest.fixture
def precise_sim() -> TraceSimulator:
    """A phase-1 simulator with no technique (precise execution)."""
    return TraceSimulator(Mode.PRECISE)
