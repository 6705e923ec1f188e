"""The ``lva-lint`` console script.

Usage::

    lva-lint src/                      # lint a tree (exit 1 on violations)
    lva-lint --select LVA001,LVA003 f.py
    lva-lint --ignore LVA005 src/
    lva-lint src/ --sarif lint.sarif   # also write a SARIF 2.1.0 log
    lva-lint src/ --stale-ignores      # flag suppressions that silence nothing
    lva-lint --list-rules

Suppress a single line with ``# lva: ignore[LVA001]`` (or a blanket
``# lva: ignore``). See ``docs/static-analysis.md`` for rule semantics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import FrozenSet, List, Optional

from repro.analysis import core, engine, report, sarif
from repro.analysis.core import Violation


def _parse_rule_set(text: Optional[str]) -> Optional[FrozenSet[str]]:
    if not text:
        return None
    return frozenset(part.strip().upper() for part in text.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lva-lint",
        description=(
            "AST-based invariant checker for the LVA reproduction: "
            "determinism (LVA001), cache-key completeness (LVA002), "
            "hot-path discipline (LVA003), worker safety (LVA004), "
            "stats consistency (LVA005), guarded hot-path telemetry "
            "(LVA006), env-influence soundness (LVA007), worker-path "
            "determinism (LVA008), mmap write discipline (LVA009)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--sarif",
        metavar="PATH",
        help="also write the report as a SARIF 2.1.0 log to PATH",
    )
    parser.add_argument(
        "--stale-ignores",
        action="store_true",
        help=(
            "report '# lva: ignore' comments that no longer silence any "
            "violation (LVA900; checked against the full rule set)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--no-summary",
        action="store_true",
        help="omit the trailing summary line",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in core.all_rules():
            print(f"{rule.rule_id}  {rule.title}")
        return 0
    files = engine.discover_files(args.paths)
    if not files:
        print(f"lva-lint: no Python files under {', '.join(args.paths)}", file=sys.stderr)
        return 2
    select = _parse_rule_set(args.select)
    ignore = _parse_rule_set(args.ignore)

    infos, errors = engine.load_modules(files)
    violations = sorted(
        errors + engine.run_modules(infos, select=select, ignore=ignore),
        key=Violation.sort_key,
    )
    if args.stale_ignores:
        # Staleness is judged against the FULL rule set: a suppression
        # of a rule merely excluded by --select is dormant, not stale.
        raw = engine.run_modules_raw(infos)
        violations = sorted(
            violations + engine.stale_suppressions(infos, raw),
            key=Violation.sort_key,
        )
    if args.sarif:
        Path(args.sarif).write_text(sarif.render_sarif(violations), encoding="utf-8")
    if violations:
        print(report.render_text(violations))
    if not args.no_summary:
        print(report.summary_line(violations, len(files)))
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
