"""LVA002 — cache keys must cover every field of their point dataclass.

A sweep point's disk-cache key is derived by a function like
``point_disk_key(point: SweepPoint)``. If a new field is added to the
point dataclass but not folded into the key, two *different* sweep points
collide onto one cache entry and the second silently reads the first's
stale result — the exact drift class PR 2 had to patch by hand for fault
specs.

The rule finds every function whose name contains ``disk_key`` or
``cache_key`` and whose first annotated parameter is a known dataclass
(dataclasses are indexed project-wide, so the dataclass may live in
another module). It then computes the set of ``param.field`` attribute
reads reachable from the function — following calls to same-module
helpers that the parameter is passed into — and reports any dataclass
field never read. Passing the whole parameter to an *external* callable
is treated as covering all fields (the key function may canonicalise the
dataclass wholesale, as ``diskcache._canonical`` does), and so is using
it whole as a returned value or as an element of a tuple, list, set or
dict display (a key of ``(point,)`` hashes every field). Other uses of
the bare name, such as ``point is None``, cover nothing.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.analysis import astutil
from repro.analysis.core import ModuleInfo, ProjectContext, Rule, Violation, register

#: Function-name fragments marking a cache-key derivation function.
_KEY_FUNCTION_MARKERS = ("disk_key", "cache_key")

#: ctx.caches slot for the project-wide dataclass field index.
_CACHE_SLOT = "LVA002.dataclasses"


def _dataclass_index(ctx: ProjectContext) -> Dict[str, Tuple[str, ...]]:
    """Map dataclass name -> field names, across every analysed module."""
    cached = ctx.caches.get(_CACHE_SLOT)
    if cached is not None:
        return cached  # type: ignore[return-value]
    index: Dict[str, Tuple[str, ...]] = {}
    for info in ctx.ordered():
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if astutil.dataclass_decorator(node) is None:
                continue
            fields = tuple(astutil.class_fields(node))
            if fields:
                index[node.name] = fields
    ctx.caches[_CACHE_SLOT] = index
    return index


def _first_param(func: ast.FunctionDef) -> Optional[ast.arg]:
    args = func.args.posonlyargs + func.args.args
    return args[0] if args else None


def _param_for_call(
    helper: ast.FunctionDef, call: ast.Call, param_name: str
) -> Optional[str]:
    """Which of ``helper``'s parameters receives ``param_name`` in ``call``."""
    helper_args = [a.arg for a in helper.args.posonlyargs + helper.args.args]
    for position, arg in enumerate(call.args):
        if isinstance(arg, ast.Name) and arg.id == param_name:
            if position < len(helper_args):
                return helper_args[position]
    for keyword in call.keywords:
        if (
            isinstance(keyword.value, ast.Name)
            and keyword.value.id == param_name
            and keyword.arg is not None
            and keyword.arg in helper_args
        ):
            return keyword.arg
    return None


class _ReadCollector(ast.NodeVisitor):
    """Attribute reads of one parameter inside one function body."""

    def __init__(
        self, param_name: str, module_functions: Dict[str, ast.FunctionDef]
    ) -> None:
        self.param_name = param_name
        self.module_functions = module_functions
        self.reads: Set[str] = set()
        #: (helper def, helper param) pairs the parameter flows into.
        self.forwards: List[Tuple[ast.FunctionDef, str]] = []
        #: True when the whole parameter escapes: to an external callable,
        #: as the returned value or into a display.
        self.escaped = False

    def _is_param(self, node: Optional[ast.AST]) -> bool:
        return (
            isinstance(node, ast.Name)
            and node.id == self.param_name
            and isinstance(node.ctx, ast.Load)
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self._is_param(node.value):
            self.reads.add(node.attr)
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if self._is_param(node.value):
            self.escaped = True
        self.generic_visit(node)

    def _visit_display(self, node: Union[ast.Tuple, ast.List, ast.Set]) -> None:
        if any(self._is_param(element) for element in node.elts):
            self.escaped = True
        self.generic_visit(node)

    visit_Tuple = visit_List = visit_Set = _visit_display

    def visit_Dict(self, node: ast.Dict) -> None:
        if any(self._is_param(item) for item in node.keys + node.values):
            self.escaped = True
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        passes_param = any(self._is_param(arg) for arg in node.args) or any(
            self._is_param(kw.value) for kw in node.keywords
        )
        if passes_param:
            callee = node.func
            helper = (
                self.module_functions.get(callee.id)
                if isinstance(callee, ast.Name)
                else None
            )
            if helper is not None:
                mapped = _param_for_call(helper, node, self.param_name)
                if mapped is not None:
                    self.forwards.append((helper, mapped))
                else:
                    self.escaped = True
            else:
                # The parameter escapes into code we cannot see; assume the
                # callee covers every field (e.g. canonicalises wholesale).
                self.escaped = True
        self.generic_visit(node)


def _covered_fields(
    func: ast.FunctionDef,
    param_name: str,
    module_functions: Dict[str, ast.FunctionDef],
) -> Tuple[Set[str], bool]:
    """Transitive ``param.field`` reads from ``func`` (reads, escaped)."""
    reads: Set[str] = set()
    seen: Set[Tuple[str, str]] = set()
    worklist: List[Tuple[ast.FunctionDef, str]] = [(func, param_name)]
    while worklist:
        current, name = worklist.pop()
        if (current.name, name) in seen:
            continue
        seen.add((current.name, name))
        collector = _ReadCollector(name, module_functions)
        for statement in current.body:
            collector.visit(statement)
        reads |= collector.reads
        if collector.escaped:
            return reads, True
        worklist.extend(collector.forwards)
    return reads, False


@register
class CacheKeyRule(Rule):
    """Every dataclass field must reach its cache-key function."""

    rule_id = "LVA002"
    title = "cache-key functions must fold in every point field"

    def check(self, info: ModuleInfo, ctx: ProjectContext) -> Iterator[Violation]:
        index = _dataclass_index(ctx)
        module_functions: Dict[str, ast.FunctionDef] = {
            node.name: node
            for node in info.tree.body
            if isinstance(node, ast.FunctionDef)
        }
        violations: List[Violation] = []
        for func in module_functions.values():
            if not any(marker in func.name for marker in _KEY_FUNCTION_MARKERS):
                continue
            param = _first_param(func)
            if param is None or param.annotation is None:
                continue
            class_name = astutil.annotation_base(param.annotation)
            if class_name is None or class_name not in index:
                continue
            covered, escaped = _covered_fields(func, param.arg, module_functions)
            if escaped:
                continue
            for field_name in index[class_name]:
                if field_name not in covered:
                    violations.append(
                        self.violation(
                            info,
                            func,
                            f"cache key function '{func.name}' never reads "
                            f"field '{field_name}' of {class_name} — two "
                            "points differing only in that field would share "
                            "one cache entry",
                        )
                    )
        return iter(violations)
