"""LVA002 fixture tests: cache-key functions must cover every point field."""

from __future__ import annotations

import textwrap

from repro.analysis import check_source, check_sources


def _hits(source: str, module: str = "repro.experiments.snippet"):
    violations = check_source(textwrap.dedent(source), module=module)
    return [(v.line, v.rule_id) for v in violations if v.rule_id == "LVA002"]


POINT = """\
from dataclasses import dataclass


@dataclass(frozen=True)
class Point:
    workload: str
    mode: str
    seed: int
    faults: str
"""


class TestOmittedField:
    def test_deliberately_omitted_field_fires_at_def_line(self):
        # 'faults' is deliberately left out of the key — the seeded bad
        # snippet from the acceptance criteria. The violation anchors at
        # the function definition line.
        hits = _hits(
            POINT
            + """\


def point_disk_key(point: Point) -> tuple:
    return (point.workload, point.mode, point.seed)
"""
        )
        assert hits == [(12, "LVA002")]

    def test_message_names_function_field_and_class(self):
        violations = check_source(
            textwrap.dedent(
                POINT
                + """\


def point_disk_key(point: Point) -> tuple:
    return (point.workload, point.mode, point.seed)
"""
            ),
            module="repro.experiments.snippet",
        )
        (violation,) = [v for v in violations if v.rule_id == "LVA002"]
        assert "point_disk_key" in violation.message
        assert "'faults'" in violation.message
        assert "Point" in violation.message

    def test_two_omitted_fields_fire_twice(self):
        hits = _hits(
            POINT
            + """\


def point_cache_key(point: Point) -> tuple:
    return (point.workload, point.seed)
"""
        )
        assert hits == [(12, "LVA002"), (12, "LVA002")]

    def test_complete_key_is_clean(self):
        assert (
            _hits(
                POINT
                + """\


def point_disk_key(point: Point) -> tuple:
    return (point.workload, point.mode, point.seed, point.faults)
"""
            )
            == []
        )


PAIR = """\
from dataclasses import dataclass


@dataclass(frozen=True)
class Point:
    workload: str
    seed: int
"""


class TestWholeParameter:
    def test_point_as_tuple_element_covers_every_field(self):
        # The in-process key of a point that hashes whole.
        assert (
            _hits(
                PAIR
                + """\


def point_cache_key(point: Point) -> tuple:
    return (point,)
"""
            )
            == []
        )

    def test_point_returned_whole_covers_every_field(self):
        assert (
            _hits(
                PAIR
                + """\


def point_cache_key(point: Point) -> Point:
    return point
"""
            )
            == []
        )

    def test_point_in_list_set_or_dict_display_covers_every_field(self):
        for display in ("[point]", "{point}", "{point: 1}", "{'key': point}"):
            source = PAIR + f"""\


def point_cache_key(point: Point) -> object:
    key = {display}
    return key
"""
            assert _hits(source) == [], display

    def test_identity_comparison_covers_nothing(self):
        assert _hits(
            PAIR
            + """\


def point_cache_key(point: Point) -> tuple:
    return (point is None, point.seed)
"""
        ) == [(10, "LVA002")]


class TestIndirection:
    def test_helper_forwarding_counts_reads(self):
        # The key function forwards the point into a same-module helper;
        # reads inside the helper count toward coverage.
        assert (
            _hits(
                POINT
                + """\


def _technique_fields(p: Point) -> tuple:
    return (p.mode, p.faults)


def point_disk_key(point: Point) -> tuple:
    return (point.workload, point.seed) + _technique_fields(point)
"""
            )
            == []
        )

    def test_helper_forwarding_still_flags_missing_field(self):
        assert _hits(
            POINT
            + """\


def _technique_fields(p: Point) -> tuple:
    return (p.mode,)


def point_disk_key(point: Point) -> tuple:
    return (point.workload, point.seed) + _technique_fields(point)
"""
        ) == [(16, "LVA002")]

    def test_escape_to_external_callable_covers_all_fields(self):
        # Passing the whole point to an unknown callable (wholesale
        # canonicalisation, like diskcache._canonical) counts as coverage.
        assert (
            _hits(
                POINT
                + """\
from repro.experiments.diskcache import point_key


def point_disk_key(point: Point) -> str:
    return point_key("k", point)
"""
            )
            == []
        )

    def test_dataclass_in_another_module_is_indexed(self):
        violations = check_sources(
            {
                "repro.experiments.points": textwrap.dedent(POINT),
                "repro.experiments.keys": textwrap.dedent(
                    """\
                    def point_disk_key(point: "Point") -> tuple:
                        return (point.workload, point.mode, point.seed)
                    """
                ),
            }
        )
        hits = [
            (v.path, v.line) for v in violations if v.rule_id == "LVA002"
        ]
        assert hits == [("<repro.experiments.keys>", 1)]


class TestScope:
    def test_non_key_function_is_ignored(self):
        assert (
            _hits(
                POINT
                + """\


def summarise(point: Point) -> tuple:
    return (point.workload,)
"""
            )
            == []
        )

    def test_unannotated_parameter_is_ignored(self):
        assert (
            _hits(
                POINT
                + """\


def point_disk_key(point) -> tuple:
    return (point.workload,)
"""
            )
            == []
        )

    def test_suppression_comment_silences(self):
        assert (
            _hits(
                POINT
                + """\


def precise_disk_key(point: Point) -> tuple:  # lva: ignore[LVA002]
    return (point.workload, point.seed)
"""
            )
            == []
        )
