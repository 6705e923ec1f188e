"""Whole-program structure: import graph, symbol resolution, call graph.

The flow rules (LVA007–LVA009) reason about *paths through the
program*, not single files. This module builds the shared skeleton from
the already-parsed :class:`~repro.analysis.core.ModuleInfo` set:

* an **import graph** — per-module binding tables that are alias-aware
  for ``import x.y as z`` and ``from x import y as z``, following
  re-export chains through package ``__init__`` modules;
* a **function index** — every function and method under a stable
  qualname ``module:Class.method`` / ``module:func`` (module-level code
  is indexed as the pseudo-function ``module:<module>``);
* a **call graph** — approximate, resolved through the binding tables,
  with method resolution on known project classes: ``self.m()``,
  ``self.attr.m()`` via constructor-assigned attribute types,
  annotation-typed locals and parameters, and constructor calls
  (``C()`` edges to ``C.__init__``);
* **environment-read sites** — every ``os.environ``/``os.getenv`` read,
  with the key expression resolved through constants and imports back
  to its defining string literal.

Everything here is a conservative approximation: unresolved calls are
dropped (documented under-approximation of reachability), and type
inference is a single non-flow-sensitive pass. The taint engine
(:mod:`repro.analysis.flow.taint`) compensates by propagating
coarsely through attributes and globals.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis import astutil
from repro.analysis.core import ModuleInfo

#: Marker used as the function name of module-level code.
MODULE_BODY = "<module>"


def pseudo_function(module: str) -> str:
    """The qualname indexing ``module``'s top-level statements."""
    return f"{module}:{MODULE_BODY}"


@dataclass(slots=True)
class Binding:
    """One imported name: a module alias or an imported symbol."""

    kind: str  # "module" | "symbol"
    module: str  # target dotted module
    name: str = ""  # symbol name within module (kind == "symbol")


@dataclass(slots=True)
class FunctionInfo:
    """One function, method, or module body in the project."""

    qualname: str
    module: str
    name: str
    cls: Optional[str]  # owning class name, None for plain functions
    node: ast.AST  # FunctionDef / AsyncFunctionDef / Module
    params: Tuple[str, ...] = ()
    #: Non-flow-sensitive local name -> class qualname, filled during
    #: call-graph construction and reused by the taint engine.
    local_types: Dict[str, str] = field(default_factory=dict)

    def body(self) -> List[ast.stmt]:
        body = getattr(self.node, "body", [])
        return list(body) if isinstance(body, list) else []


@dataclass(slots=True)
class ClassInfo:
    """One project class with its methods and inferred attribute types."""

    qualname: str  # "module:Class"
    module: str
    name: str
    node: ast.ClassDef
    methods: Dict[str, str] = field(default_factory=dict)  # name -> func qualname
    attr_types: Dict[str, str] = field(default_factory=dict)  # attr -> class qualname
    bases: Tuple[str, ...] = ()  # raw dotted base names


@dataclass(slots=True)
class EnvRead:
    """One ``os.environ``/``os.getenv`` read site."""

    func: str  # qualname of the enclosing function (or module body)
    module: str
    node: ast.AST  # the Call / Subscript performing the read
    var: Optional[str]  # resolved variable name, None when dynamic
    source: str  # "literal" | "constant" | "dynamic"
    declared_in: Optional[str]  # module whose literal ultimately defines it


class ProjectGraph:
    """The shared whole-program skeleton for the flow rules."""

    def __init__(self, modules: List[ModuleInfo]) -> None:
        self.modules: Dict[str, ModuleInfo] = {m.module: m for m in modules}
        self.bindings: Dict[str, Dict[str, Binding]] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: module -> name -> func/class qualname defined at module level.
        self._module_funcs: Dict[str, Dict[str, str]] = {}
        self._module_classes: Dict[str, Dict[str, str]] = {}
        #: module-level constants: (module, name) -> RHS expression.
        self._consts: Dict[Tuple[str, str], ast.expr] = {}
        #: caller qualname -> callee qualnames.
        self.call_edges: Dict[str, Set[str]] = {}
        #: (caller qualname, id(call node)) -> callee qualname.
        self._call_resolution: Dict[Tuple[str, int], str] = {}
        self.env_reads: List[EnvRead] = []
        #: module -> ids of nodes inside top-level defs/classes (so the
        #: module pseudo-function can skip them in O(1)).
        self._toplevel_owned: Dict[str, Set[int]] = {}
        #: Memo tables — the AST is immutable for the graph's lifetime.
        self._symbol_memo: Dict[Tuple[str, str], Optional[Tuple[str, str]]] = {}
        self._dotted_memo: Dict[Tuple[str, str], Optional[Tuple[str, str]]] = {}
        self._const_memo: Dict[Tuple[str, str], Optional[Tuple[str, str]]] = {}
        self._expr_class_memo: Dict[Tuple[str, int], Optional[str]] = {}

        for info in modules:
            self._index_module(info)
        for info in modules:
            self._infer_attr_types(info)
        for func in list(self.functions.values()):
            self._build_calls(func)
        for func in list(self.functions.values()):
            self._scan_env_reads(func)

    # ----------------------------------------------------------------- #
    # Indexing                                                          #
    # ----------------------------------------------------------------- #

    def _index_module(self, info: ModuleInfo) -> None:
        module = info.module
        self.bindings[module] = {}
        self._module_funcs[module] = {}
        self._module_classes[module] = {}
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.bindings[module][local] = Binding("module", target)
            elif isinstance(node, ast.ImportFrom):
                target = self._from_target(module, node)
                if target is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.bindings[module][local] = Binding(
                        "symbol", target, alias.name
                    )
        body_fn = FunctionInfo(
            qualname=pseudo_function(module),
            module=module,
            name=MODULE_BODY,
            cls=None,
            node=info.tree,
        )
        self.functions[body_fn.qualname] = body_fn
        owned: Set[int] = set()
        for stmt in info.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for child in ast.walk(stmt):
                    owned.add(id(child))
        self._toplevel_owned[module] = owned
        for stmt in info.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(module, None, stmt)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(module, stmt)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self._consts[(module, target.id)] = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                    self._consts[(module, stmt.target.id)] = stmt.value

    def _from_target(self, module: str, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        parts = module.split(".")
        # ``from . import x`` in a package __init__ has one fewer hop:
        # the module name *is* the package. Approximate with the common
        # case (named modules), which this repository uses exclusively.
        if node.level > len(parts):
            return None
        base = parts[: len(parts) - node.level]
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base) if base else None

    def _index_function(
        self, module: str, cls: Optional[str], node: ast.AST
    ) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        name = f"{cls}.{node.name}" if cls else node.name
        args = node.args
        params = tuple(
            a.arg
            for a in (args.posonlyargs + args.args + args.kwonlyargs)
        )
        fn = FunctionInfo(
            qualname=f"{module}:{name}",
            module=module,
            name=node.name,
            cls=cls,
            node=node,
            params=params,
        )
        self.functions[fn.qualname] = fn
        if cls is None:
            self._module_funcs[module][node.name] = fn.qualname
        return None

    def _index_class(self, module: str, node: ast.ClassDef) -> None:
        qualname = f"{module}:{node.name}"
        bases: List[str] = []
        for base in node.bases:
            dotted = astutil.dotted_name(base)
            if dotted is not None:
                bases.append(dotted)
        cls = ClassInfo(
            qualname=qualname,
            module=module,
            name=node.name,
            node=node,
            bases=tuple(bases),
        )
        self.classes[qualname] = cls
        self._module_classes[module][node.name] = qualname
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(module, node.name, stmt)
                cls.methods[stmt.name] = f"{module}:{node.name}.{stmt.name}"

    # ----------------------------------------------------------------- #
    # Symbol resolution                                                 #
    # ----------------------------------------------------------------- #

    def resolve_symbol(
        self, module: str, name: str, _seen: Optional[Set[Tuple[str, str]]] = None
    ) -> Optional[Tuple[str, str]]:
        """Resolve ``name`` in ``module`` to ``(kind, payload)``.

        Kinds: ``("func", qualname)``, ``("class", qualname)``,
        ``("module", dotted)``, ``("const", "module:name")``. Follows
        import chains (re-exports) with a cycle guard.
        """
        if _seen is None and (module, name) in self._symbol_memo:
            return self._symbol_memo[(module, name)]
        seen = _seen if _seen is not None else set()
        if (module, name) in seen:
            return None
        seen.add((module, name))
        result = self._resolve_symbol_inner(module, name, seen)
        if _seen is None:
            self._symbol_memo[(module, name)] = result
        return result

    def _resolve_symbol_inner(
        self, module: str, name: str, seen: Set[Tuple[str, str]]
    ) -> Optional[Tuple[str, str]]:
        funcs = self._module_funcs.get(module, {})
        if name in funcs:
            return ("func", funcs[name])
        classes = self._module_classes.get(module, {})
        if name in classes:
            return ("class", classes[name])
        binding = self.bindings.get(module, {}).get(name)
        if binding is not None:
            if binding.kind == "module":
                return ("module", binding.module)
            if binding.module in self.modules:
                resolved = self.resolve_symbol(binding.module, binding.name, seen)
                if resolved is not None:
                    return resolved
                if (binding.module, binding.name) in self._consts:
                    return ("const", f"{binding.module}:{binding.name}")
                # ``from pkg import submodule`` binds the submodule even
                # when pkg's __init__ carries no matching name.
                dotted = f"{binding.module}.{binding.name}"
                if dotted in self.modules:
                    return ("module", dotted)
                return None
            # A submodule import spelled ``from pkg import mod``.
            dotted = f"{binding.module}.{binding.name}"
            if dotted in self.modules:
                return ("module", dotted)
            return None
        if (module, name) in self._consts:
            return ("const", f"{module}:{name}")
        return None

    def resolve_dotted(self, module: str, dotted: str) -> Optional[Tuple[str, str]]:
        """Resolve ``a.b.c`` starting from ``module``'s namespace."""
        memo_key = (module, dotted)
        if memo_key in self._dotted_memo:
            return self._dotted_memo[memo_key]
        result = self._resolve_dotted_inner(module, dotted)
        self._dotted_memo[memo_key] = result
        return result

    def _resolve_dotted_inner(
        self, module: str, dotted: str
    ) -> Optional[Tuple[str, str]]:
        parts = dotted.split(".")
        resolved = self.resolve_symbol(module, parts[0])
        for part in parts[1:]:
            if resolved is None:
                return None
            kind, payload = resolved
            if kind == "module":
                submodule = f"{payload}.{part}"
                if submodule in self.modules:
                    resolved = ("module", submodule)
                else:
                    resolved = self.resolve_symbol(payload, part)
            elif kind == "class":
                method = self.method_on(payload, part)
                resolved = ("func", method) if method is not None else None
            else:
                return None
        return resolved

    def method_on(self, class_qualname: str, name: str) -> Optional[str]:
        """Resolve a method through the (approximate) base-class chain."""
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if name in cls.methods:
                return cls.methods[name]
            for base in cls.bases:
                resolved = self.resolve_dotted(cls.module, base)
                if resolved is not None and resolved[0] == "class":
                    stack.append(resolved[1])
        return None

    def resolve_string_constant(
        self, module: str, name: str, _seen: Optional[Set[Tuple[str, str]]] = None
    ) -> Optional[Tuple[str, str]]:
        """Trace a name to its defining string literal.

        Returns ``(value, defining_module)`` — following assignment
        aliases (``A = B``), imports, and registry-declaration calls
        whose first argument is the literal (``NAME = _declare("X", …)``).
        """
        if _seen is None and (module, name) in self._const_memo:
            return self._const_memo[(module, name)]
        seen = _seen if _seen is not None else set()
        if (module, name) in seen:
            return None
        seen.add((module, name))
        result = self._resolve_string_constant_inner(module, name, seen)
        if _seen is None:
            self._const_memo[(module, name)] = result
        return result

    def _resolve_string_constant_inner(
        self, module: str, name: str, seen: Set[Tuple[str, str]]
    ) -> Optional[Tuple[str, str]]:
        expr = self._consts.get((module, name))
        if expr is None:
            binding = self.bindings.get(module, {}).get(name)
            if binding is not None and binding.kind == "symbol":
                return self.resolve_string_constant(binding.module, binding.name, seen)
            return None
        return self._literal_of(module, expr, seen)

    def _literal_of(
        self, module: str, expr: ast.expr, seen: Set[Tuple[str, str]]
    ) -> Optional[Tuple[str, str]]:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return (expr.value, module)
        if isinstance(expr, ast.Name):
            return self.resolve_string_constant(module, expr.id, seen)
        if isinstance(expr, ast.Attribute):
            dotted = astutil.dotted_name(expr)
            if dotted is None:
                return None
            resolved = self.resolve_dotted(module, ".".join(dotted.split(".")[:-1]))
            if resolved is not None and resolved[0] == "module":
                return self.resolve_string_constant(
                    resolved[1], dotted.split(".")[-1], seen
                )
            return None
        if isinstance(expr, ast.Call) and expr.args:
            first = expr.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                return (first.value, module)
        return None

    # ----------------------------------------------------------------- #
    # Types                                                             #
    # ----------------------------------------------------------------- #

    def _class_from_annotation(
        self, module: str, annotation: Optional[ast.expr]
    ) -> Optional[str]:
        base = astutil.annotation_base(annotation)
        if base is None:
            return None
        resolved = self.resolve_symbol(module, base)
        if resolved is not None and resolved[0] == "class":
            return resolved[1]
        return None

    def _class_from_value(
        self, module: str, value: ast.expr, local_types: Dict[str, str]
    ) -> Optional[str]:
        """The class an expression evaluates to, when statically known."""
        if isinstance(value, ast.Call):
            dotted = astutil.dotted_name(value.func)
            if dotted is not None:
                resolved = self.resolve_dotted(module, dotted)
                if resolved is not None:
                    if resolved[0] == "class":
                        return resolved[1]
                    if resolved[0] == "func":
                        fn = self.functions.get(resolved[1])
                        node = fn.node if fn is not None else None
                        returns = getattr(node, "returns", None)
                        if fn is not None and returns is not None:
                            return self._class_from_annotation(fn.module, returns)
            return None
        if isinstance(value, ast.Name):
            return local_types.get(value.id)
        if isinstance(value, ast.Attribute):
            owner = self.expr_class(None, value.value, local_types, module)
            if owner is not None:
                cls = self.classes.get(owner)
                if cls is not None:
                    return cls.attr_types.get(value.attr)
        return None

    def _infer_attr_types(self, info: ModuleInfo) -> None:
        for qualname, cls in self.classes.items():
            if cls.module != info.module:
                continue
            # Dataclass-style annotated fields typed as project classes.
            for attr, (_, base) in astutil.class_fields(cls.node).items():
                if base is None:
                    continue
                resolved = self.resolve_symbol(cls.module, base)
                if resolved is not None and resolved[0] == "class":
                    cls.attr_types[attr] = resolved[1]
            # ``self.x = ClassName(...)`` anywhere in the class body.
            for node in ast.walk(cls.node):
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign):
                    targets, value = [node.target], node.value
                    annotated = self._class_from_annotation(cls.module, node.annotation)
                    if (
                        annotated is not None
                        and isinstance(node.target, ast.Attribute)
                        and isinstance(node.target.value, ast.Name)
                        and node.target.value.id == "self"
                    ):
                        cls.attr_types.setdefault(node.target.attr, annotated)
                if value is None:
                    continue
                inferred = self._class_from_value(cls.module, value, {})
                if inferred is None:
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        cls.attr_types.setdefault(target.attr, inferred)

    def expr_class(
        self,
        func: Optional[FunctionInfo],
        expr: ast.expr,
        local_types: Optional[Dict[str, str]] = None,
        module: Optional[str] = None,
    ) -> Optional[str]:
        """The class qualname an expression's value belongs to, if known."""
        memo_key = (func.qualname if func is not None else "", id(expr))
        if local_types is None and memo_key in self._expr_class_memo:
            return self._expr_class_memo[memo_key]
        result = self._expr_class_inner(func, expr, local_types, module)
        if local_types is None:
            self._expr_class_memo[memo_key] = result
        return result

    def _expr_class_inner(
        self,
        func: Optional[FunctionInfo],
        expr: ast.expr,
        local_types: Optional[Dict[str, str]] = None,
        module: Optional[str] = None,
    ) -> Optional[str]:
        mod = module if module is not None else (func.module if func else "")
        locals_ = (
            local_types
            if local_types is not None
            else (func.local_types if func else {})
        )
        if isinstance(expr, ast.Name):
            if expr.id == "self" and func is not None and func.cls is not None:
                return f"{func.module}:{func.cls}"
            if expr.id in locals_:
                return locals_[expr.id]
            resolved = self.resolve_symbol(mod, expr.id)
            if resolved is not None and resolved[0] == "class":
                return resolved[1]
            return None
        if isinstance(expr, ast.Attribute):
            owner = self.expr_class(func, expr.value, locals_, mod)
            if owner is not None:
                cls = self.classes.get(owner)
                if cls is not None:
                    return cls.attr_types.get(expr.attr)
            return None
        if isinstance(expr, ast.Call):
            return self._class_from_value(mod, expr, locals_)
        return None

    def _infer_local_types(self, func: FunctionInfo) -> None:
        node = func.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        types = func.local_types
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            inferred = self._class_from_annotation(func.module, arg.annotation)
            if inferred is not None:
                types[arg.arg] = inferred
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                inferred = self._class_from_annotation(func.module, stmt.annotation)
                if inferred is not None:
                    types[stmt.target.id] = inferred
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    inferred = self._class_from_value(func.module, stmt.value, types)
                    if inferred is not None:
                        types[target.id] = inferred

    # ----------------------------------------------------------------- #
    # Call graph                                                        #
    # ----------------------------------------------------------------- #

    def _build_calls(self, func: FunctionInfo) -> None:
        self._infer_local_types(func)
        edges = self.call_edges.setdefault(func.qualname, set())
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            if self._owning_function(func, node):
                callee = self.resolve_call(func, node)
                if callee is not None:
                    edges.add(callee)
                    self._call_resolution[(func.qualname, id(node))] = callee

    def _owning_function(self, func: FunctionInfo, node: ast.AST) -> bool:
        # Module bodies own only statements outside any top-level def or
        # class; those subtrees belong to their own FunctionInfos (for
        # true closures, to the enclosing function — the useful
        # approximation for reachability).
        if isinstance(func.node, ast.Module):
            return id(node) not in self._toplevel_owned.get(func.module, set())
        return True

    def resolve_call(self, func: FunctionInfo, node: ast.Call) -> Optional[str]:
        """The callee qualname of one call, when statically resolvable."""
        callee = node.func
        if isinstance(callee, ast.Name):
            resolved = self.resolve_symbol(func.module, callee.id)
            if resolved is None:
                return None
            if resolved[0] == "func":
                return resolved[1]
            if resolved[0] == "class":
                init = self.method_on(resolved[1], "__init__")
                return init
            return None
        if isinstance(callee, ast.Attribute):
            # Try a fully-dotted resolution first (module.attr chains).
            dotted = astutil.dotted_name(callee)
            if dotted is not None:
                resolved = self.resolve_dotted(func.module, dotted)
                if resolved is not None:
                    if resolved[0] == "func":
                        return resolved[1]
                    if resolved[0] == "class":
                        return self.method_on(resolved[1], "__init__")
            # Method resolution on the receiver's class, when known.
            owner = self.expr_class(func, callee.value)
            if owner is not None:
                return self.method_on(owner, callee.attr)
        return None

    def callee_at(self, func_qualname: str, node: ast.AST) -> Optional[str]:
        """The resolved callee of a call node seen during construction."""
        return self._call_resolution.get((func_qualname, id(node)))

    # ----------------------------------------------------------------- #
    # Reachability                                                      #
    # ----------------------------------------------------------------- #

    def reachable_from(
        self, entries: List[str]
    ) -> Tuple[Set[str], Dict[str, str]]:
        """BFS over the call graph: reachable functions + parent links."""
        seen: Set[str] = set()
        parents: Dict[str, str] = {}
        queue: List[str] = []
        for entry in entries:
            if entry in self.functions and entry not in seen:
                seen.add(entry)
                queue.append(entry)
        while queue:
            current = queue.pop(0)
            for callee in sorted(self.call_edges.get(current, ())):
                if callee not in seen and callee in self.functions:
                    seen.add(callee)
                    parents[callee] = current
                    queue.append(callee)
        return seen, parents

    def call_chain(self, parents: Dict[str, str], target: str, limit: int = 5) -> str:
        """Render ``entry -> … -> target`` from BFS parent links."""
        chain: List[str] = [target]
        current = target
        while current in parents and len(chain) < limit:
            current = parents[current]
            chain.append(current)
        return " -> ".join(short_name(q) for q in reversed(chain))

    # ----------------------------------------------------------------- #
    # Environment reads                                                 #
    # ----------------------------------------------------------------- #

    def _scan_env_reads(self, func: FunctionInfo) -> None:
        for node in ast.walk(func.node):
            if isinstance(func.node, ast.Module) and not self._owning_function(
                func, node
            ):
                continue
            key: Optional[ast.expr] = None
            if isinstance(node, ast.Call):
                key = self._env_call_key(func, node)
            elif isinstance(node, ast.Subscript) and not isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                if self._is_environ(func, node.value):
                    key = node.slice
            if key is None:
                continue
            var, source, declared_in = self._resolve_env_key(func.module, key)
            self.env_reads.append(
                EnvRead(
                    func=func.qualname,
                    module=func.module,
                    node=node,
                    var=var,
                    source=source,
                    declared_in=declared_in,
                )
            )

    def _is_environ(self, func: FunctionInfo, expr: ast.expr) -> bool:
        dotted = astutil.dotted_name(expr)
        if dotted is None:
            return False
        if dotted == "os.environ":
            binding = self.bindings.get(func.module, {}).get("os")
            return binding is None or binding.module == "os"
        binding = self.bindings.get(func.module, {}).get(dotted.split(".")[0])
        if binding is not None and binding.kind == "symbol":
            return binding.module == "os" and binding.name == "environ"
        if binding is not None and binding.kind == "module":
            return binding.module == "os" and dotted.endswith(".environ")
        return False

    def _env_call_key(
        self, func: FunctionInfo, node: ast.Call
    ) -> Optional[ast.expr]:
        callee = node.func
        if not node.args:
            return None
        if isinstance(callee, ast.Attribute):
            if callee.attr == "get" and self._is_environ(func, callee.value):
                return node.args[0]
            if callee.attr == "getenv":
                dotted = astutil.dotted_name(callee.value)
                if dotted == "os":
                    return node.args[0]
        elif isinstance(callee, ast.Name):
            binding = self.bindings.get(func.module, {}).get(callee.id)
            if (
                binding is not None
                and binding.kind == "symbol"
                and binding.module == "os"
                and binding.name == "getenv"
            ):
                return node.args[0]
        return None

    def _resolve_env_key(
        self, module: str, key: ast.expr
    ) -> Tuple[Optional[str], str, Optional[str]]:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            return (key.value, "literal", module)
        if isinstance(key, ast.Name):
            resolved = self.resolve_string_constant(module, key.id)
            if resolved is not None:
                return (resolved[0], "constant", resolved[1])
            if self._is_external_name(module, key.id):
                return (None, "external", None)
            return (None, "dynamic", None)
        if isinstance(key, ast.Attribute):
            dotted = astutil.dotted_name(key)
            if dotted is not None:
                prefix, _, last = dotted.rpartition(".")
                owner = self.resolve_dotted(module, prefix)
                if owner is not None and owner[0] == "module":
                    resolved = self.resolve_string_constant(owner[1], last)
                    if resolved is not None:
                        return (resolved[0], "constant", resolved[1])
                    if owner[1] not in self.modules:
                        return (None, "external", None)
                if owner is None and self._is_external_name(
                    module, dotted.split(".")[0]
                ):
                    return (None, "external", None)
            return (None, "dynamic", None)
        return (None, "dynamic", None)

    def _is_external_name(self, module: str, name: str) -> bool:
        """True when ``name`` is imported from outside the analyzed set.

        A key read through such a name is a *constant the lint cannot
        see* (e.g. a test importing ``diskcache.CACHE_DIR_ENV`` while
        only ``tests/`` is being linted), not a dynamically computed
        key; whole-tree runs resolve it properly.
        """
        binding = self.bindings.get(module, {}).get(name)
        return binding is not None and binding.module not in self.modules


def short_name(qualname: str) -> str:
    """``module:Class.method`` -> ``module.Class.method`` for messages."""
    return qualname.replace(":", ".").replace("." + MODULE_BODY, "")
