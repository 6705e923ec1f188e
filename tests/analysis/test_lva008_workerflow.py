"""LVA008 — interprocedural determinism along worker-reachable paths.

Synthetic universes with a worker module (``app.pool``), simulation
package (``app.sim``) and flow-exempt telemetry (``app.tel``) pin the
reachability semantics: which functions
count as roots, which modules are skipped (LVA001 territory, exempt
packages), and that messages carry the call chain.
"""

from __future__ import annotations

import textwrap
from typing import Dict, List

from repro.analysis import AnalysisConfig, check_sources
from repro.analysis.core import Violation

SELECT = frozenset({"LVA008"})

CONFIG = AnalysisConfig(
    sim_packages=("app.sim",),
    host_allowlist=(),
    worker_modules=("app.pool",),
    worker_entry_patterns=("_run_", "_worker"),
    flow_entry_points=("app.engine:Engine.run",),
    flow_exempt_modules=("app.tel",),
    envspec_module="app.envspec",
    env_prefix="APP_",
    env_registry=(("APP_UNUSED", "neutral", "t", ""),),
)


def run(sources: Dict[str, str]) -> List[Violation]:
    return check_sources(
        {module: textwrap.dedent(source) for module, source in sources.items()},
        config=CONFIG,
        select=SELECT,
    )


WALLCLOCK_HELPER = """\
    import time

    def helper():
        return time.perf_counter()
    """


class TestReachability:
    def test_worker_entry_reaches_helper_in_another_module(self):
        violations = run(
            {
                "app.util": WALLCLOCK_HELPER,
                "app.pool": """\
                    from app.util import helper

                    def _run_point(point):
                        return helper()
                    """,
            }
        )
        assert len(violations) == 1
        violation = violations[0]
        assert violation.rule_id == "LVA008"
        assert violation.path == "<app.util>"
        assert "worker-reachable path" in violation.message
        assert "reachable via app.pool._run_point -> app.util.helper" in (
            violation.message
        )

    def test_configured_entry_method_is_a_root(self):
        violations = run(
            {
                "app.util": WALLCLOCK_HELPER,
                "app.engine": """\
                    from app.util import helper

                    class Engine:
                        def run(self, trace):
                            return helper()
                    """,
            }
        )
        assert len(violations) == 1
        assert "app.engine.Engine.run" in violations[0].message

    def test_unreachable_helper_not_flagged(self):
        violations = run(
            {
                "app.util": WALLCLOCK_HELPER,
                "app.pool": """\
                    def _run_point(point):
                        return point
                    """,
            }
        )
        assert violations == []


class TestScopeGates:
    def test_sim_modules_left_to_lva001(self):
        # The construct IS a violation there — but LVA001's, not LVA008's.
        violations = run(
            {
                "app.sim.core": WALLCLOCK_HELPER,
                "app.pool": """\
                    from app.sim.core import helper

                    def _run_point(point):
                        return helper()
                    """,
            }
        )
        assert violations == []

    def test_flow_exempt_modules_skipped(self):
        violations = run(
            {
                "app.tel": WALLCLOCK_HELPER,
                "app.pool": """\
                    from app.tel import helper

                    def _run_point(point):
                        return helper()
                    """,
            }
        )
        assert violations == []

    def test_supervisor_methods_are_not_worker_entries(self):
        # Pool workers must be picklable module-level functions; a
        # *method* matching the pattern is host-side supervision and may
        # legitimately use wall-clock timeouts.
        violations = run(
            {
                "app.util": WALLCLOCK_HELPER,
                "app.pool": """\
                    from app.util import helper

                    class Sweep:
                        def _run_serial(self):
                            return helper()
                    """,
            }
        )
        assert violations == []


class TestConstructCoverage:
    def test_unseeded_randomness_flagged_on_worker_path(self):
        violations = run(
            {
                "app.util": """\
                    import random

                    def jitter():
                        return random.random()
                    """,
                "app.pool": """\
                    from app.util import jitter

                    def _run_point(point):
                        return point + jitter()
                    """,
            }
        )
        assert len(violations) == 1
        assert "random" in violations[0].message

    def test_suppression_applies_at_the_offending_line(self):
        violations = run(
            {
                "app.util": """\
                    import time

                    def helper():
                        return time.perf_counter()  # lva: ignore[LVA008]
                    """,
                "app.pool": """\
                    from app.util import helper

                    def _run_point(point):
                        return helper()
                    """,
            }
        )
        assert violations == []
