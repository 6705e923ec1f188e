"""LVA003 — hot-path discipline: slots dataclasses, allocation-lean methods.

The per-load fast path (PR 1's −44 % miss/train, −54 % probe wins) relies
on two properties that regress silently:

* dataclasses in the hot packages must declare ``slots=True`` — instance
  dicts cost both memory and attribute-lookup time, and a single new
  dataclass without slots re-introduces them;
* the per-load methods named in :attr:`AnalysisConfig.hot_methods` must
  not allocate per call: no lambdas, comprehensions, generator
  expressions or nested function definitions (each builds a new object
  every invocation on the hottest path in the library).
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Tuple, Type

from repro.analysis import astutil
from repro.analysis.core import ModuleInfo, ProjectContext, Rule, Violation, register

#: Node types that allocate a closure/comprehension object per execution.
_ALLOCATING_NODES: Tuple[Type[ast.AST], ...] = (
    ast.Lambda,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)

_ALLOCATION_LABEL = {
    ast.Lambda: "a lambda",
    ast.ListComp: "a list comprehension",
    ast.SetComp: "a set comprehension",
    ast.DictComp: "a dict comprehension",
    ast.GeneratorExp: "a generator expression",
    ast.FunctionDef: "a nested function",
    ast.AsyncFunctionDef: "a nested function",
}


@register
class HotPathRule(Rule):
    """slots=True dataclasses and allocation-free per-load methods."""

    rule_id = "LVA003"
    title = "hot-path classes stay slim, per-load methods stay allocation-free"

    def check(self, info: ModuleInfo, ctx: ProjectContext) -> Iterator[Violation]:
        if not ctx.config.is_hotpath_module(info.module):
            return iter(())
        violations: List[Violation] = []
        hot_methods = frozenset(ctx.config.hot_methods)
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            self._check_dataclass(info, node, violations)
            self._check_methods(info, node, hot_methods, violations)
        return iter(violations)

    def _check_dataclass(
        self, info: ModuleInfo, node: ast.ClassDef, out: List[Violation]
    ) -> None:
        decorator = astutil.dataclass_decorator(node)
        if decorator is None:
            return
        slots = astutil.decorator_keyword(decorator, "slots")
        if slots is None or not (
            isinstance(slots, ast.Constant) and slots.value is True
        ):
            out.append(
                self.violation(
                    info,
                    node,
                    f"dataclass '{node.name}' in a hot-path package must "
                    "declare slots=True (instance dicts cost memory and "
                    "attribute-lookup time on the per-load path)",
                )
            )

    def _check_methods(
        self,
        info: ModuleInfo,
        cls: ast.ClassDef,
        hot_methods: FrozenSet[str],
        out: List[Violation],
    ) -> None:
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            qualified = f"{cls.name}.{method.name}"
            if qualified not in hot_methods:
                continue
            for child in ast.walk(method):
                if child is method:
                    continue
                if isinstance(child, _ALLOCATING_NODES) or isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    out.append(
                        self.violation(
                            info,
                            child,
                            f"per-load method '{qualified}' allocates "
                            f"{_ALLOCATION_LABEL[type(child)]} on every call; "
                            "hoist it out of the hot path",
                        )
                    )
