"""Shared fixtures for the fault-injection tests."""

from __future__ import annotations

import pytest

from repro import faults


@pytest.fixture(autouse=True)
def _no_stray_injection():
    """No spec leaks into or out of any test in this package."""
    faults.deactivate()
    yield
    faults.deactivate()
