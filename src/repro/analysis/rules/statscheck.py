"""LVA005 — counters written must be declared, counters declared must be written.

Every ``*Stats`` dataclass (``SimulationStats``, ``CacheStats``,
``MSHRStats``, ...) is a contract between the simulators that increment
its counters and the reports that read them. Two failure modes drift in
silently:

* a simulator increments ``self.stats.covered_missess`` (typo, or a
  counter that was renamed) — with ``slots=True`` this raises at runtime,
  without it the count vanishes into a fresh attribute;
* a counter is declared but no simulator ever updates it — the report
  column reads 0 forever and looks like a measurement.

The rule indexes every dataclass whose name ends in ``Stats`` across the
project, records every ``<expr>.stats.<counter>`` write (``+=``, ``=``,
and container mutations like ``.add(...)``/``.append(...)``), resolves
``self.stats`` to a concrete Stats class through the enclosing class's
``self.stats = XStats()`` binding when possible, and reports both
directions. Scope: :meth:`AnalysisConfig.effective_stats_packages`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis import astutil
from repro.analysis.core import ModuleInfo, ProjectContext, Rule, Violation, register

_CACHE_SLOT = "LVA005.index"

#: Container-mutation methods that count as updating a counter field.
_MUTATORS = ("add", "append", "update", "discard", "remove", "extend", "pop", "clear")


@dataclass(slots=True)
class _StatsClass:
    """One ``*Stats`` dataclass declaration."""

    name: str
    module: str
    path: str
    line: int
    #: field name -> (declaration line, annotation base).
    fields: Dict[str, Tuple[int, Optional[str]]]
    properties: Set[str] = field(default_factory=set)

    def counter_fields(self) -> Dict[str, int]:
        """Numeric fields that must have at least one write site."""
        return {
            name: line
            for name, (line, base) in self.fields.items()
            if base in ("int", "float")
        }


@dataclass(slots=True)
class _Index:
    """Project-wide Stats declarations plus accumulated write sites."""

    classes: Dict[str, _StatsClass] = field(default_factory=dict)
    all_fields: Set[str] = field(default_factory=set)
    written: Set[str] = field(default_factory=set)


def _build_index(ctx: ProjectContext) -> _Index:
    cached = ctx.caches.get(_CACHE_SLOT)
    if cached is not None:
        return cached  # type: ignore[return-value]
    index = _Index()
    for info in ctx.ordered():
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith("Stats"):
                continue
            if astutil.dataclass_decorator(node) is None:
                continue
            stats_class = _StatsClass(
                name=node.name,
                module=info.module,
                path=info.path,
                line=node.lineno,
                fields=astutil.class_fields(node),
                properties=set(astutil.property_names(node)),
            )
            index.classes[node.name] = stats_class
            index.all_fields |= set(stats_class.fields)
    ctx.caches[_CACHE_SLOT] = index
    return index


def _stats_binding(cls: ast.ClassDef, index: _Index) -> Optional[str]:
    """The Stats class assigned to ``self.stats`` in ``cls``, if unique."""
    bound: Set[str] = set()
    for node in ast.walk(cls):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "stats"
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and isinstance(value, ast.Call)
            ):
                callee = astutil.terminal_name(value.func)
                if callee is not None and callee in index.classes:
                    bound.add(callee)
    if len(bound) == 1:
        return bound.pop()
    return None


def _counter_write(node: ast.AST) -> Optional[Tuple[str, bool, ast.AST]]:
    """Detect a ``<expr>.stats.<counter>`` update.

    Returns (counter name, is_self_stats, anchor node) or None. Handles
    ``x.stats.c += 1``, ``x.stats.c = v`` and ``x.stats.c.add(v)``.
    """
    target: Optional[ast.expr] = None
    if isinstance(node, ast.AugAssign):
        target = node.target
    elif isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _MUTATORS
    ):
        target = node.func.value
    if not isinstance(target, ast.Attribute):
        return None
    holder = target.value
    if isinstance(holder, ast.Attribute) and holder.attr == "stats":
        is_self = isinstance(holder.value, ast.Name) and holder.value.id == "self"
        return target.attr, is_self, target
    if isinstance(holder, ast.Name) and holder.id == "stats":
        # Hot paths hoist ``stats = self.stats`` into a local; writes
        # through the alias still count (checked against the field union).
        return target.attr, False, target
    return None


@register
class StatsConsistencyRule(Rule):
    """Two-way check between Stats declarations and counter writes."""

    rule_id = "LVA005"
    title = "stats counters: writes match declarations, declarations are written"

    def check(self, info: ModuleInfo, ctx: ProjectContext) -> Iterator[Violation]:
        index = _build_index(ctx)
        if not ctx.config.is_stats_module(info.module):
            return iter(())
        violations: List[Violation] = []
        for cls in ast.walk(info.tree):
            if isinstance(cls, ast.ClassDef):
                bound = _stats_binding(cls, index)
                for node in ast.walk(cls):
                    self._check_write(info, index, node, bound, violations)
        # Module-level writes outside any class (rare, but keep them honest).
        for node in info.tree.body:
            if not isinstance(node, ast.ClassDef):
                for child in ast.walk(node):
                    self._check_write(info, index, child, None, violations)
        return iter(violations)

    def _check_write(
        self,
        info: ModuleInfo,
        index: _Index,
        node: ast.AST,
        bound_class: Optional[str],
        out: List[Violation],
    ) -> None:
        write = _counter_write(node)
        if write is None:
            return
        counter, is_self, anchor = write
        index.written.add(counter)
        if is_self and bound_class is not None:
            stats_class = index.classes[bound_class]
            if counter not in stats_class.fields:
                out.append(
                    self.violation(
                        info,
                        anchor,
                        f"write to 'self.stats.{counter}' but {bound_class} "
                        f"declares no field '{counter}' — undeclared counters "
                        "never reach reports",
                    )
                )
        elif counter not in index.all_fields:
            out.append(
                self.violation(
                    info,
                    anchor,
                    f"write to '.stats.{counter}' matches no field of any "
                    "known *Stats dataclass — undeclared counters never "
                    "reach reports",
                )
            )

    def finish(self, ctx: ProjectContext) -> Iterator[Violation]:
        index = _build_index(ctx)
        violations: List[Violation] = []
        for stats_class in index.classes.values():
            if not ctx.config.is_stats_module(stats_class.module):
                continue
            for counter, line in sorted(stats_class.counter_fields().items()):
                if counter not in index.written:
                    violations.append(
                        Violation(
                            rule_id=self.rule_id,
                            path=stats_class.path,
                            line=line,
                            col=1,
                            message=(
                                f"counter '{stats_class.name}.{counter}' is "
                                "declared but never updated by any simulator — "
                                "its report column would read 0 forever"
                            ),
                        )
                    )
        return iter(violations)
