"""LVA003 fixture tests: slots dataclasses and allocation-free hot methods."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.analysis import check_source
from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.engine import discover_files, module_name_for

SRC = Path(__file__).resolve().parents[2] / "src"


def _hits(source: str, module: str = "repro.mem.snippet"):
    violations = check_source(textwrap.dedent(source), module=module)
    return [(v.line, v.rule_id) for v in violations if v.rule_id == "LVA003"]


class TestSlotsDataclasses:
    def test_dataclass_without_slots_fires_at_class_line(self):
        assert _hits(
            """\
            from dataclasses import dataclass


            @dataclass
            class LineState:
                tag: int
                dirty: bool
            """
        ) == [(5, "LVA003")]

    def test_dataclass_call_without_slots_fires(self):
        assert _hits(
            """\
            from dataclasses import dataclass


            @dataclass(frozen=True)
            class LineState:
                tag: int
            """
        ) == [(5, "LVA003")]

    def test_slots_true_is_clean(self):
        assert (
            _hits(
                """\
                from dataclasses import dataclass


                @dataclass(frozen=True, slots=True)
                class LineState:
                    tag: int
                """
            )
            == []
        )

    def test_plain_class_is_not_required_to_slot(self):
        assert (
            _hits(
                """\
                class LineState:
                    def __init__(self, tag):
                        self.tag = tag
                """
            )
            == []
        )

    def test_outside_hotpath_packages_is_exempt(self):
        assert (
            _hits(
                """\
                from dataclasses import dataclass


                @dataclass
                class ReportRow:
                    label: str
                """,
                module="repro.experiments.snippet",
            )
            == []
        )


class TestHotMethodAllocations:
    def test_list_comprehension_in_hot_method_fires(self):
        assert _hits(
            """\
            class SetAssociativeCache:
                def fill(self, addr):
                    ways = [w for w in self.ways if w.valid]
                    return ways
            """
        ) == [(3, "LVA003")]

    def test_lambda_in_hot_method_fires(self):
        assert _hits(
            """\
            class SetAssociativeCache:
                def probe(self, addr):
                    pick = min(self.ways, key=lambda w: w.age)
                    return pick
            """
        ) == [(3, "LVA003")]

    def test_generator_expression_in_hot_method_fires(self):
        assert _hits(
            """\
            class MeshNetwork:
                def send(self, addr):
                    return sum(w.age for w in self.ways)
            """
        ) == [(3, "LVA003")]

    def test_nested_function_in_hot_method_fires(self):
        assert _hits(
            """\
            class CoreTimingModel:
                def advance(self, addr):
                    def score(entry):
                        return entry.age
                    return score
            """
        ) == [(3, "LVA003")]

    def test_plain_loop_in_hot_method_is_clean(self):
        assert (
            _hits(
                """\
                class SetAssociativeCache:
                    def fill(self, addr):
                        for way in self.ways:
                            if way.tag == addr:
                                return way
                        return None
                """
            )
            == []
        )

    def test_non_hot_method_may_use_comprehensions(self):
        # Per-miss / setup methods are allowed to allocate.
        assert (
            _hits(
                """\
                class SetAssociativeCache:
                    def snapshot(self):
                        return [w.tag for w in self.ways]
                """
            )
            == []
        )

    def test_same_method_name_on_other_class_is_clean(self):
        # hot_methods are qualified Class.method names, not bare names.
        assert (
            _hits(
                """\
                class Trace:
                    def load(self, path):
                        return [line for line in open(path)]
                """
            )
            == []
        )


class TestDefaultHotMethods:
    def test_every_entry_names_a_method_the_rule_checks(self):
        # LVA003 skips an entry that matches no method, so a renamed or
        # deleted hot method would silently drop out of the check. Each
        # entry must name a method of a class in a hot-path module.
        defined = set()
        for path, _ in discover_files([str(SRC)]):
            if not DEFAULT_CONFIG.is_hotpath_module(module_name_for(path)):
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef):
                    defined.update(
                        f"{cls.name}.{node.name}"
                        for node in cls.body
                        if isinstance(node, ast.FunctionDef)
                    )
        assert sorted(set(DEFAULT_CONFIG.hot_methods) - defined) == []
