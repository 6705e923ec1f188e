"""LVA008 — determinism along worker-reachable call paths.

LVA001 polices the simulation packages directly, but a sweep worker's
result must be reproducible end to end: a wall-clock read or unseeded
random draw in a *host-side helper* that a worker entry calls corrupts
resumability just as surely as one inside the simulator. This rule
extends the LVA001 checks interprocedurally:

* roots: every worker entry point (``_run_*`` / ``*_worker`` functions
  in the worker modules) and the configured public simulation entries
  (``flow_entry_points``);
* the call graph is walked breadth-first, and each reachable function
  in a module *not* already covered by LVA001 (and not flow-exempt —
  telemetry legitimately reads clocks) is checked function-scoped for
  the LVA001 determinism constructs;
* messages carry the call chain (``entry -> helper -> offender``) from
  the BFS parent links, so a finding explains *why* the function is on
  a deterministic path.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.core import ModuleInfo, ProjectContext, Rule, Violation, register
from repro.analysis.flow import flow_analysis
from repro.analysis.flow.graphs import MODULE_BODY
from repro.analysis.rules.determinism import _DeterminismVisitor


@register
class WorkerFlowRule(Rule):
    """No clocks/entropy/set-iteration on worker-reachable paths."""

    rule_id = "LVA008"
    title = "worker-reachable code must be deterministic"

    def check(self, info: ModuleInfo, ctx: ProjectContext) -> Iterator[Violation]:
        return iter(())

    def finish(self, ctx: ProjectContext) -> Iterator[Violation]:
        flow = flow_analysis(ctx)
        graph = flow.graph
        config = ctx.config

        entries: List[str] = []
        for qualname, fn in sorted(graph.functions.items()):
            if fn.name == MODULE_BODY:
                continue
            if (
                fn.cls is None
                and config.is_worker_module(fn.module)
                and config.is_worker_entry(fn.name)
            ):
                # Pool worker entries are picklable module-level
                # functions; supervisor *methods* matching the pattern
                # are host-side and may use wall-clock timeouts.
                entries.append(qualname)
        for entry in config.flow_entry_points:
            if entry in graph.functions:
                entries.append(entry)

        reachable, parents = graph.reachable_from(entries)
        out: List[Violation] = []
        for qualname in sorted(reachable):
            fn = graph.functions[qualname]
            if config.is_sim_module(fn.module):
                continue  # LVA001 already covers simulation modules.
            if config.is_flow_exempt(fn.module):
                continue
            info = ctx.modules.get(fn.module)
            if info is None or not isinstance(
                fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            chain = graph.call_chain(parents, qualname)
            for violation in self._scan_function(info, fn.node):
                out.append(
                    Violation(
                        rule_id=self.rule_id,
                        path=violation.path,
                        line=violation.line,
                        col=violation.col,
                        message=(
                            violation.message.replace(
                                " inside simulation code",
                                " on a worker-reachable path",
                            )
                            + f" [reachable via {chain}]"
                        ),
                    )
                )
        return iter(out)

    def _scan_function(
        self, info: ModuleInfo, node: ast.AST
    ) -> List[Violation]:
        """Run the LVA001 construct checks scoped to one function."""
        visitor = _DeterminismVisitor(self, info)
        # Seed module-level import aliases and set annotations so the
        # function-scoped walk resolves ``time.perf_counter`` etc.
        for top in ast.walk(info.tree):
            if isinstance(top, (ast.Import, ast.ImportFrom)):
                visitor.visit(top)
            elif isinstance(top, ast.AnnAssign):
                visitor.visit_AnnAssign(top)
        visitor.violations = []
        visitor.visit(node)
        return visitor.violations


__all__ = ["WorkerFlowRule"]
