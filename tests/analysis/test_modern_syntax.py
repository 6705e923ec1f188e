"""The framework must handle modern Python syntax, not just the subset
the repo happens to use today: ``match`` statements, walrus
assignments, PEP 604 unions, and parenthesized context managers all
parse, lint without crashing, and stay transparent to the flow
analysis (an env read inside a ``match`` arm is still an env read).
"""

from __future__ import annotations

import textwrap
from typing import Dict, List

from repro.analysis import AnalysisConfig, check_sources
from repro.analysis.core import Violation

CONFIG = AnalysisConfig(
    sim_packages=("app.sim",),
    worker_modules=("app.pool",),
    flow_entry_points=(),
    flow_exempt_modules=(),
    key_function_markers=("cache_key",),
    mmap_providers=(),
    envspec_module="app.envspec",
    env_prefix="APP_",
    env_registry=(
        ("APP_MODE", "keyed", "", "app.modern.cache_key"),
        ("APP_DIR", "neutral", "tests/test_dir.py", ""),
    ),
)

ENVSPEC = 'MODE_ENV = "APP_MODE"\nDIR_ENV = "APP_DIR"\n'


def run(sources: Dict[str, str], select=None) -> List[Violation]:
    merged = {"app.envspec": ENVSPEC}
    merged.update(
        {module: textwrap.dedent(source) for module, source in sources.items()}
    )
    return check_sources(merged, config=CONFIG, select=select)


class TestParsesClean:
    def test_match_statement(self):
        violations = run(
            {
                "app.modern": """\
                    import os

                    from app.envspec import MODE_ENV

                    def pick(kind):
                        match kind:
                            case "fast":
                                return 1
                            case {"mode": value}:
                                return value
                            case [first, *rest]:
                                return first
                            case _:
                                return 0

                    def cache_key(point):
                        return (os.environ.get(MODE_ENV), point)
                    """,
            }
        )
        assert violations == []

    def test_walrus_and_union_types(self):
        violations = run(
            {
                "app.modern": """\
                    import os

                    from app.envspec import MODE_ENV

                    def read(default: str | None = None) -> str | None:
                        if (value := os.environ.get(MODE_ENV)) is not None:
                            return value
                        return default

                    def cache_key(point):
                        return (read(), point)
                    """,
            }
        )
        assert violations == []

    def test_parenthesized_context_managers(self):
        violations = run(
            {
                "app.modern": """\
                    import os

                    from app.envspec import MODE_ENV

                    def copy(src, dst):
                        with (
                            open(src) as fin,
                            open(dst, "w") as fout,
                        ):
                            fout.write(fin.read())

                    def cache_key(point):
                        return (os.environ.get(MODE_ENV), point)
                    """,
            }
        )
        assert violations == []


class TestFlowSeesThroughModernSyntax:
    def test_env_read_inside_match_arm_detected(self):
        violations = run(
            {
                "app.modern": """\
                    import os

                    def pick(kind):
                        match kind:
                            case "env":
                                return os.environ.get("APP_SURPRISE")
                            case _:
                                return None
                    """,
            },
            select=frozenset({"LVA007"}),
        )
        assert len(violations) == 1
        assert "APP_SURPRISE" in violations[0].message

    def test_taint_flows_through_walrus(self):
        violations = run(
            {
                "app.modern": """\
                    import os

                    from app.envspec import DIR_ENV

                    def cache_key(point):
                        if (root := os.environ.get(DIR_ENV)) is None:
                            root = "/tmp"
                        return (root, point)
                    """,
            },
            select=frozenset({"LVA007"}),
        )
        assert any("APP_DIR taints" in v.message for v in violations), [
            v.render() for v in violations
        ]

    def test_suppression_comment_inside_match_block(self):
        violations = run(
            {
                "app.modern": """\
                    import os

                    def pick(kind):
                        match kind:
                            case "env":
                                return os.environ.get("APP_SURPRISE")  # lva: ignore[LVA007]
                            case _:
                                return None
                    """,
            },
            select=frozenset({"LVA007"}),
        )
        assert violations == []
