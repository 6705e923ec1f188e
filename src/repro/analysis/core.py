"""Rule framework: violations, parsed modules, suppressions, registry.

A :class:`Rule` inspects one parsed module at a time (with the whole
project visible through :class:`ProjectContext` for cross-module rules
like LVA005) and yields :class:`Violation` records. Suppressions are
ordinary comments — ``# lva: ignore[LVA001]`` silences named rules on
that line, ``# lva: ignore`` silences everything — parsed with
:mod:`tokenize` so string literals that merely *contain* the marker do
not count.
"""

from __future__ import annotations

import abc
import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple, Type

from repro.analysis.config import AnalysisConfig

#: Matches the suppression marker inside a comment token.
_SUPPRESS_RE = re.compile(r"#\s*lva:\s*ignore(?:\[([A-Za-z0-9_,\s]+)\])?")

#: The blanket marker silences every rule on its line.
_ALL_RULES = frozenset({"*"})


@dataclass(frozen=True, slots=True)
class Violation:
    """One rule hit, anchored to a file position."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """``path:line:col: RULE message`` — the clickable report form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)


def _parse_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> rule ids silenced there (``{"*"}`` = all)."""
    suppressions: Dict[int, FrozenSet[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            names = match.group(1)
            if names is None:
                silenced = _ALL_RULES
            else:
                silenced = frozenset(
                    name.strip().upper() for name in names.split(",") if name.strip()
                )
            line = token.start[0]
            suppressions[line] = suppressions.get(line, frozenset()) | silenced
    except (tokenize.TokenError, IndentationError):
        # Unparseable comment stream: no suppressions, the rules still run
        # (the AST parse either succeeded already or failed loudly).
        return suppressions
    return suppressions


@dataclass(slots=True)
class ModuleInfo:
    """One parsed source module, ready for rule visitors."""

    module: str
    path: str
    source: str
    tree: ast.Module
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str, module: str, path: str) -> "ModuleInfo":
        """Parse ``source``; raises SyntaxError with the path attached."""
        tree = ast.parse(source, filename=path)
        return cls(
            module=module,
            path=path,
            source=source,
            tree=tree,
            suppressions=_parse_suppressions(source),
        )

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        silenced = self.suppressions.get(line)
        if silenced is None:
            return False
        return "*" in silenced or rule_id.upper() in silenced


class ProjectContext:
    """Everything the rules may look at: all modules plus the scope config."""

    def __init__(
        self, modules: List[ModuleInfo], config: AnalysisConfig
    ) -> None:
        self.config = config
        self.modules: Dict[str, ModuleInfo] = {info.module: info for info in modules}
        #: Scratch space for cross-module rule indexes, keyed by rule id.
        self.caches: Dict[str, object] = {}

    def ordered(self) -> List[ModuleInfo]:
        return sorted(self.modules.values(), key=lambda info: info.path)


class Rule(abc.ABC):
    """Base class for one lint rule.

    Subclasses set ``rule_id``/``title`` and implement :meth:`check`,
    yielding raw violations; the engine applies suppressions afterwards.
    """

    rule_id: str = ""
    title: str = ""

    @abc.abstractmethod
    def check(self, info: ModuleInfo, ctx: ProjectContext) -> Iterator[Violation]:
        """Yield violations found in one module."""

    def finish(self, ctx: ProjectContext) -> Iterator[Violation]:
        """Yield project-level violations after every module was checked.

        Cross-module rules (LVA005's "declared but never written"
        direction) report here, once all write sites are known.
        """
        return iter(())

    def violation(
        self, info: ModuleInfo, node: ast.AST, message: str
    ) -> Violation:
        """Convenience constructor anchored at an AST node."""
        return Violation(
            rule_id=self.rule_id,
            path=info.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules(
    select: Optional[FrozenSet[str]] = None,
    ignore: Optional[FrozenSet[str]] = None,
) -> List[Rule]:
    """Instantiate the registered rules, honouring select/ignore sets."""
    # Rule modules register themselves on import.
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    instances: List[Rule] = []
    for rule_id in sorted(_REGISTRY):
        if select is not None and rule_id not in select:
            continue
        if ignore is not None and rule_id in ignore:
            continue
        instances.append(_REGISTRY[rule_id]())
    return instances


def rule_ids() -> List[str]:
    """The registered rule ids, sorted."""
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return sorted(_REGISTRY)
