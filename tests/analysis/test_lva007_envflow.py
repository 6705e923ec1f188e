"""LVA007 — env-influence soundness, against synthetic universes.

Each fixture declares its own envspec module (``app.envspec``) and
registry rows via ``AnalysisConfig.env_registry``, then checks that:

* reads resolve statically to envspec constants (no literals, no
  re-declared constants, no dynamic keys, no unregistered variables);
* ``keyed`` variables provably reach a cache-key function;
* ``neutral`` / ``capture-only`` variables provably do not, and carry a
  pinning-test pointer.
"""

from __future__ import annotations

import textwrap
from typing import Dict, List

from repro.analysis import AnalysisConfig, check_sources
from repro.analysis.core import Violation

SELECT = frozenset({"LVA007"})

CONFIG = AnalysisConfig(
    sim_packages=("app.sim",),
    worker_modules=("app.pool",),
    flow_entry_points=(),
    flow_exempt_modules=(),
    key_function_markers=("cache_key", "disk_key"),
    mmap_providers=(),
    envspec_module="app.envspec",
    env_prefix="APP_",
    env_registry=(
        ("APP_MODE", "keyed", "", "app.keys.cache_key"),
        ("APP_DIR", "neutral", "tests/test_dir.py", ""),
        ("APP_LOG", "capture-only", "tests/test_log.py", ""),
        ("APP_BAD", "neutral", "", ""),
    ),
)

ENVSPEC = textwrap.dedent(
    """\
    MODE_ENV = "APP_MODE"
    DIR_ENV = "APP_DIR"
    LOG_ENV = "APP_LOG"
    BAD_ENV = "APP_BAD"
    """
)


def run(sources: Dict[str, str]) -> List[Violation]:
    merged = {"app.envspec": ENVSPEC}
    merged.update(
        {module: textwrap.dedent(source) for module, source in sources.items()}
    )
    return check_sources(merged, config=CONFIG, select=SELECT)


def messages(violations: List[Violation]) -> str:
    return "\n".join(v.render() for v in violations)


#: A keyed read that reaches the key function — the sanctioned shape.
KEYED_OK = {
    "app.keys": """\
        import os
        from app.envspec import MODE_ENV

        def read_mode():
            return os.environ.get(MODE_ENV, "fast")

        def cache_key(point):
            return (read_mode(), point)
        """,
}


class TestReadResolution:
    def test_sanctioned_shape_is_clean(self):
        assert run(KEYED_OK) == []

    def test_literal_read_flagged(self):
        violations = run(
            {
                "app.keys": """\
                    import os

                    def cache_key(point):
                        return (os.environ.get("APP_MODE"), point)
                    """,
            }
        )
        assert len(violations) == 1
        assert "string literal" in violations[0].message
        assert violations[0].rule_id == "LVA007"

    def test_unregistered_variable_flagged(self):
        violations = run(
            {
                "app.other": """\
                    import os

                    def read():
                        return os.environ.get("APP_SURPRISE")
                    """,
            }
        )
        assert len(violations) == 1
        assert "not declared in app.envspec" in violations[0].message

    def test_redeclared_constant_flagged(self):
        violations = run(
            {
                "app.keys": KEYED_OK["app.keys"],
                "app.rogue": """\
                    import os

                    DIR_ENV = "APP_DIR"

                    def read_dir():
                        return os.environ.get(DIR_ENV)
                    """,
            }
        )
        assert len(violations) == 1
        assert "declared in app.rogue, not app.envspec" in violations[0].message

    def test_dynamic_key_flagged(self):
        violations = run(
            {
                "app.other": """\
                    import os

                    def read(name):
                        return os.getenv(name)
                    """,
            }
        )
        assert len(violations) == 1
        assert "cannot resolve statically" in violations[0].message

    def test_non_prefixed_variables_ignored(self):
        violations = run(
            {
                "app.other": """\
                    import os

                    def read():
                        return os.environ.get("HOME")
                    """,
            }
        )
        assert violations == []

    def test_reads_inside_envspec_module_exempt(self):
        # The registry module may bootstrap-read its own constants.
        merged = {
            "app.envspec": ENVSPEC
            + "import os\n\ndef read():\n    return os.environ.get(MODE_ENV)\n"
        }
        assert check_sources(merged, config=CONFIG, select=SELECT) == []


class TestClassificationSoundness:
    def test_keyed_must_reach_key_function(self):
        violations = run(
            {
                "app.keys": """\
                    import os
                    from app.envspec import MODE_ENV

                    def read_mode():
                        return os.environ.get(MODE_ENV, "fast")

                    def cache_key(point):
                        return (point,)
                    """,
            }
        )
        assert len(violations) == 1, messages(violations)
        assert "never provably reaches" in violations[0].message
        assert "app.keys.cache_key" in violations[0].message

    def test_neutral_must_not_reach_key_function(self):
        violations = run(
            {
                "app.keys": KEYED_OK["app.keys"],
                "app.leak": """\
                    import os
                    from app.envspec import DIR_ENV

                    def read_dir():
                        return os.environ.get(DIR_ENV, "/tmp")

                    def disk_key(point):
                        return (read_dir(), point)
                    """,
            }
        )
        assert len(violations) == 1, messages(violations)
        assert "neutral env var APP_DIR taints" in violations[0].message
        assert "app.leak.disk_key" in violations[0].message

    def test_capture_only_must_not_reach_key_function(self):
        violations = run(
            {
                "app.keys": KEYED_OK["app.keys"],
                "app.leak": """\
                    import os
                    from app.envspec import LOG_ENV

                    def log_path():
                        return os.environ.get(LOG_ENV, "")

                    def cache_key(point):
                        return (log_path(), point)
                    """,
            }
        )
        assert any("capture-only env var APP_LOG taints" in v.message for v in violations), (
            messages(violations)
        )

    def test_taint_tracked_through_intermediate_module(self):
        violations = run(
            {
                "app.cfg": """\
                    import os
                    from app.envspec import DIR_ENV

                    def read_dir():
                        return os.environ.get(DIR_ENV, "/tmp")
                    """,
                "app.keys": textwrap.dedent(KEYED_OK["app.keys"])
                + "\nfrom app.cfg import read_dir\n\n\n"
                "def disk_key(point):\n    return (read_dir(), point)\n",
            }
        )
        assert any("APP_DIR taints" in v.message for v in violations), (
            messages(violations)
        )

    def test_missing_pinning_test_flagged(self):
        violations = run(
            {
                "app.keys": KEYED_OK["app.keys"],
                "app.other": """\
                    import os
                    from app.envspec import BAD_ENV

                    def read_bad():
                        return os.environ.get(BAD_ENV)
                    """,
            }
        )
        assert len(violations) == 1, messages(violations)
        assert "no pinning test" in violations[0].message


class TestSuppression:
    def test_inline_ignore_silences_the_read(self):
        merged = {
            "app.envspec": ENVSPEC,
            "app.other": textwrap.dedent(
                """\
                import os

                def read():
                    return os.environ.get("APP_SURPRISE")  # lva: ignore[LVA007]
                """
            ),
        }
        assert check_sources(merged, config=CONFIG, select=SELECT) == []
