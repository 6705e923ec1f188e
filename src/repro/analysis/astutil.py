"""Small AST helpers shared by the rule visitors."""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> Optional[str]:
    """The last identifier of a Name/Attribute chain (``c`` for ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def dataclass_decorator(node: ast.ClassDef) -> Optional[ast.expr]:
    """The ``@dataclass`` / ``@dataclasses.dataclass`` decorator, if any."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if terminal_name(target) == "dataclass":
            return decorator
    return None


def decorator_keyword(decorator: ast.expr, name: str) -> Optional[ast.expr]:
    """The value of keyword ``name`` on a decorator call, if present."""
    if not isinstance(decorator, ast.Call):
        return None
    for keyword in decorator.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def annotation_base(annotation: Optional[ast.expr]) -> Optional[str]:
    """The base identifier of an annotation: ``Set`` for ``Set[int]`` etc.

    Handles ``Optional[...]``-style wrappers one level deep, string
    annotations (``"Set[int]"``) and plain names.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.Subscript):
        base = terminal_name(annotation.value)
        if base in ("Optional", "Final", "ClassVar"):
            return annotation_base(
                annotation.slice
                if not isinstance(annotation.slice, ast.Tuple)
                else None
            )
        return base
    return terminal_name(annotation)


def class_fields(node: ast.ClassDef) -> Dict[str, Tuple[int, Optional[str]]]:
    """Dataclass-style fields: name -> (line, annotation base identifier).

    Only simple annotated assignments in the class body count;
    ``ClassVar`` declarations are skipped (not instance fields).
    """
    fields: Dict[str, Tuple[int, Optional[str]]] = {}
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign):
            continue
        if not isinstance(statement.target, ast.Name):
            continue
        base = annotation_base(statement.annotation)
        outer = statement.annotation
        if isinstance(outer, ast.Subscript) and terminal_name(outer.value) == "ClassVar":
            continue
        fields[statement.target.id] = (statement.lineno, base)
    return fields


def property_names(node: ast.ClassDef) -> List[str]:
    """Names of ``@property`` methods declared directly on the class."""
    names: List[str] = []
    for statement in node.body:
        if isinstance(statement, ast.FunctionDef):
            for decorator in statement.decorator_list:
                if terminal_name(decorator) == "property":
                    names.append(statement.name)
                    break
    return names
