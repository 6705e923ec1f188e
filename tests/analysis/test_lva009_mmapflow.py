"""LVA009 — no in-place writes into mmap-backed arrays.

The taint source is ``np.load(..., mmap_mode=...)`` or a configured
provider (``app.store:Store.get``); the taint survives views (names,
subscripts, ``reshape``/``T``) and dies at copies (``np.array``,
arithmetic). Writes through any tainted value — subscript stores,
augmented assignment, mutating methods, ``np.copyto``-family calls —
are violations.
"""

from __future__ import annotations

import textwrap
from typing import Dict, List

from repro.analysis import AnalysisConfig, check_sources
from repro.analysis.core import Violation

SELECT = frozenset({"LVA009"})

CONFIG = AnalysisConfig(
    sim_packages=("app.sim",),
    worker_modules=("app.pool",),
    flow_entry_points=(),
    flow_exempt_modules=(),
    mmap_providers=("app.store:Store.get",),
    envspec_module="app.envspec",
    env_prefix="APP_",
    env_registry=(("APP_UNUSED", "neutral", "t", ""),),
)

STORE = """\
    class Store:
        def get(self, key):
            return None
    """


def run(sources: Dict[str, str]) -> List[Violation]:
    return check_sources(
        {module: textwrap.dedent(source) for module, source in sources.items()},
        config=CONFIG,
        select=SELECT,
    )


class TestDirectMmapLoads:
    def test_subscript_store_flagged(self):
        violations = run(
            {
                "app.reader": """\
                    import numpy as np

                    def patch(path):
                        arr = np.load(path, mmap_mode="r")
                        arr[0] = 1.0
                        return arr
                    """,
            }
        )
        assert len(violations) == 1
        violation = violations[0]
        assert violation.rule_id == "LVA009"
        assert violation.line == 5
        assert "materialize a copy" in violation.message

    def test_augmented_assignment_flagged(self):
        violations = run(
            {
                "app.reader": """\
                    import numpy as np

                    def bump(path):
                        arr = np.load(path, mmap_mode="r")
                        arr[3] += 1.0
                    """,
            }
        )
        assert len(violations) == 1

    def test_mutating_method_flagged(self):
        violations = run(
            {
                "app.reader": """\
                    import numpy as np

                    def wipe(path):
                        arr = np.load(path, mmap_mode="r")
                        arr.fill(0.0)
                    """,
            }
        )
        assert len(violations) == 1

    def test_write_through_view_flagged(self):
        violations = run(
            {
                "app.reader": """\
                    import numpy as np

                    def patch(path):
                        arr = np.load(path, mmap_mode="r")
                        view = arr.reshape(-1)
                        view[0] = 1.0
                    """,
            }
        )
        assert len(violations) == 1

    def test_np_copyto_into_mapped_destination_flagged(self):
        violations = run(
            {
                "app.reader": """\
                    import numpy as np

                    def overwrite(path, values):
                        arr = np.load(path, mmap_mode="r")
                        np.copyto(arr, values)
                    """,
            }
        )
        assert len(violations) == 1

    def test_plain_load_without_mmap_clean(self):
        violations = run(
            {
                "app.reader": """\
                    import numpy as np

                    def patch(path):
                        arr = np.load(path)
                        arr[0] = 1.0
                    """,
            }
        )
        assert violations == []

    def test_copy_sheds_the_taint(self):
        violations = run(
            {
                "app.reader": """\
                    import numpy as np

                    def patch(path):
                        arr = np.load(path, mmap_mode="r")
                        out = np.array(arr)
                        out[0] = 1.0
                        shifted = arr + 1.0
                        shifted[1] = 2.0
                        return out, shifted
                    """,
            }
        )
        assert violations == []


class TestProviderTaint:
    def test_store_get_result_is_mapped(self):
        violations = run(
            {
                "app.store": STORE,
                "app.reader": """\
                    from app.store import Store

                    def patch(key):
                        store = Store()
                        cols = store.get(key)
                        cols[0] = 1.0
                    """,
            }
        )
        assert len(violations) == 1
        assert violations[0].path == "<app.reader>"

    def test_taint_crosses_function_boundaries(self):
        violations = run(
            {
                "app.store": STORE,
                "app.loader": """\
                    from app.store import Store

                    def fetch(key):
                        return Store().get(key)
                    """,
                "app.reader": """\
                    from app.loader import fetch

                    def patch(key):
                        cols = fetch(key)
                        cols[0] = 1.0
                    """,
            }
        )
        assert len(violations) == 1
        assert violations[0].path == "<app.reader>"

    def test_reading_is_clean(self):
        violations = run(
            {
                "app.store": STORE,
                "app.reader": """\
                    from app.store import Store

                    def total(key):
                        cols = Store().get(key)
                        return cols.sum()
                    """,
            }
        )
        assert violations == []
