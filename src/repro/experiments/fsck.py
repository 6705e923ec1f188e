"""``lva-fsck``: offline integrity scan + repair of the storage layer.

The runtime already verifies on read (a corrupt entry heals as a miss),
but a long-lived shared cache accumulates debris the hot path never
revisits: entries bit-rotted after their last read, tmp files and
tmpdirs orphaned by killed publishers, schema generations left behind by
version bumps. ``lva-fsck`` walks the whole store — result cache and
trace store — and reports a verdict per entry:

=================  ====================================================
``ok``             frame/checksums verify, schema current
``corrupt``        bytes present but damaged (bad magic length, CRC
                   mismatch, unreadable meta)
``orphaned-tmp``   a ``*.tmp`` file or tmpdir left by a killed publish
``schema-mismatch``  a valid entry from an older schema generation
=================  ====================================================

``--repair`` moves corrupt/orphaned/stale entries into
``<cache-dir>/quarantine/<subsystem>/``; ``--delete`` removes them
instead. Exit status is 0 when the store is clean (or fully repaired),
1 when problems remain.

Usage::

    lva-fsck                  # scan $REPRO_CACHE_DIR (or the default)
    lva-fsck --repair         # quarantine everything damaged
    lva-fsck --delete --json  # machine-readable, destructive
"""

from __future__ import annotations

import argparse
import json
import pickle
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.experiments import diskcache, integrity, tracestore
from repro.sim.trace import TRACE_COLUMNS

#: Verdicts that --repair / --delete act on.
ACTIONABLE = ("corrupt", "orphaned-tmp", "schema-mismatch")


@dataclass
class Finding:
    """One scanned artifact and what the scan concluded about it."""

    subsystem: str  # cache | trace
    path: Path
    verdict: str  # ok | corrupt | orphaned-tmp | schema-mismatch
    detail: str = ""
    #: Set by repair: where the artifact went ("quarantined:<path>",
    #: "deleted", or "repair-failed").
    action: str = ""

    def as_dict(self) -> Dict[str, str]:
        return {
            "subsystem": self.subsystem,
            "path": str(self.path),
            "verdict": self.verdict,
            "detail": self.detail,
            "action": self.action,
        }


@dataclass
class ScanReport:
    findings: List[Finding] = field(default_factory=list)

    @property
    def problems(self) -> List[Finding]:
        return [f for f in self.findings if f.verdict in ACTIONABLE]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.verdict] = out.get(finding.verdict, 0) + 1
        return out


def _is_tmp(path: Path) -> bool:
    return path.name.endswith(".tmp") or (
        path.name.startswith(".") and ".tmp" in path.name
    )


# --------------------------------------------------------------------- #
# Scanners                                                              #
# --------------------------------------------------------------------- #


def scan_cache(root: Path) -> List[Finding]:
    """Verdict per result-cache entry under ``root`` (the cache dir)."""
    findings: List[Finding] = []
    if not root.exists():
        return findings
    for shard in sorted(root.iterdir()):
        # ``journals/`` holds the run journals that older versions wrote
        # beside the cache; nothing reads them now.
        if not shard.is_dir() or shard.name in (
            integrity.QUARANTINE_DIR,
            "traces",
            "journals",
        ):
            continue
        for path in sorted(shard.iterdir()):
            if _is_tmp(path):
                findings.append(
                    Finding("cache", path, "orphaned-tmp", "killed publish left debris")
                )
                continue
            if path.suffix != ".pkl" or not path.is_file():
                continue
            try:
                blob = path.read_bytes()
            except OSError as exc:
                findings.append(Finding("cache", path, "corrupt", f"unreadable: {exc}"))
                continue
            try:
                payload = integrity.unframe(blob)
            except integrity.IntegrityError as exc:
                verdict = "schema-mismatch" if exc.reason == "magic" else "corrupt"
                detail = (
                    "pre-checksum (v1) or foreign entry"
                    if exc.reason == "magic"
                    else f"frame {exc.reason} failure"
                )
                findings.append(Finding("cache", path, verdict, detail))
                continue
            try:
                pickle.loads(payload)
            except Exception as exc:  # checksum passed but pickle didn't
                findings.append(
                    Finding("cache", path, "corrupt", f"checksummed but unpicklable: {exc}")
                )
                continue
            findings.append(Finding("cache", path, "ok"))
    return findings


def scan_traces(root: Path) -> List[Finding]:
    """Verdict per trace-store entry under ``root`` (the cache dir)."""
    findings: List[Finding] = []
    store = root / "traces"
    if not store.exists():
        return findings
    for shard in sorted(store.iterdir()):
        if not shard.is_dir():
            continue
        for entry in sorted(shard.iterdir()):
            if _is_tmp(entry):
                findings.append(
                    Finding("trace", entry, "orphaned-tmp", "killed publish left tmpdir")
                )
                continue
            if not entry.is_dir():
                continue
            findings.append(_scan_trace_entry(entry))
    return findings


def _scan_trace_entry(entry: Path) -> Finding:
    meta_path = entry / tracestore.META_NAME
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
    except FileNotFoundError:
        return Finding("trace", entry, "corrupt", "no meta.json (incomplete publish)")
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        return Finding("trace", entry, "corrupt", f"meta unreadable: {exc}")
    if not isinstance(meta, dict) or not integrity.verify_record(meta):
        return Finding("trace", entry, "corrupt", "meta failed its self-checksum")
    if meta.get("trace_schema") != tracestore.TRACE_SCHEMA_VERSION:
        return Finding(
            "trace",
            entry,
            "schema-mismatch",
            f"trace_schema={meta.get('trace_schema')!r}, "
            f"current={tracestore.TRACE_SCHEMA_VERSION}",
        )
    checksums = meta.get("checksums", {})
    try:
        length = int(meta["events"])
    except (KeyError, TypeError, ValueError):
        return Finding("trace", entry, "corrupt", "meta missing/invalid events count")
    for name, dtype in TRACE_COLUMNS:
        column_path = entry / f"{name}.npy"
        if not column_path.is_file():
            return Finding("trace", entry, "corrupt", f"missing column {name!r}")
        expected = checksums.get(name)
        if expected is None or integrity.crc32_file(column_path) != expected:
            return Finding("trace", entry, "corrupt", f"column {name!r} failed checksum")
        try:
            column = np.load(column_path, mmap_mode="r" if length else None,
                             allow_pickle=False)
            if column.ndim != 1 or len(column) != length or column.dtype != np.dtype(dtype):
                return Finding(
                    "trace", entry, "corrupt", f"column {name!r} does not match meta"
                )
        except (OSError, ValueError) as exc:
            return Finding("trace", entry, "corrupt", f"column {name!r} unloadable: {exc}")
    return Finding("trace", entry, "ok")


def scan(root: Optional[Path] = None) -> ScanReport:
    """Scan the cache and the trace store; ``root`` defaults to the cache dir."""
    root = root or diskcache.default_cache_dir()
    report = ScanReport()
    report.findings.extend(scan_cache(root))
    report.findings.extend(scan_traces(root))
    return report


# --------------------------------------------------------------------- #
# Repair                                                                #
# --------------------------------------------------------------------- #


def repair(report: ScanReport, root: Optional[Path] = None, delete: bool = False) -> None:
    """Act on every actionable finding; records the action taken in-place.

    Each is quarantined under ``<root>/quarantine/<subsystem>/``, or
    deleted with ``delete=True``.
    """
    root = root or diskcache.default_cache_dir()
    for finding in report.problems:
        path = finding.path
        if delete:
            try:
                if path.is_dir():
                    shutil.rmtree(path)
                else:
                    path.unlink()
                finding.action = "deleted"
            except OSError:
                finding.action = "repair-failed"
            continue
        destination = integrity.quarantine(root, finding.subsystem, path)
        finding.action = (
            f"quarantined:{destination}" if destination is not None else "repair-failed"
        )


# --------------------------------------------------------------------- #
# CLI                                                                   #
# --------------------------------------------------------------------- #


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lva-fsck",
        description="Scan (and optionally repair) the LVA result cache "
        "and trace store.",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="store to scan (default: $REPRO_CACHE_DIR or ~/.cache/repro-lva)",
    )
    parser.add_argument(
        "--repair",
        action="store_true",
        help="quarantine damaged entries",
    )
    parser.add_argument(
        "--delete",
        action="store_true",
        help="with --repair semantics, but delete instead of quarantining",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress per-entry ok lines"
    )
    args = parser.parse_args(argv)

    root = args.cache_dir or diskcache.default_cache_dir()
    report = scan(root)
    if args.repair or args.delete:
        repair(report, root, delete=args.delete)

    problems = report.problems
    unresolved = [
        f
        for f in problems
        if not (f.action.startswith("quarantined") or f.action == "deleted")
    ]
    if args.json:
        print(
            json.dumps(
                {
                    "root": str(root),
                    "counts": report.counts(),
                    "findings": [f.as_dict() for f in report.findings],
                    "clean": not unresolved,
                },
                indent=2,
            )
        )
    else:
        for finding in report.findings:
            if args.quiet and finding.verdict == "ok":
                continue
            suffix = f" [{finding.action}]" if finding.action else ""
            detail = f" ({finding.detail})" if finding.detail else ""
            print(f"{finding.verdict:16} {finding.subsystem:8} {finding.path}{detail}{suffix}")
        counts = report.counts()
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items())) or "empty store"
        print(f"lva-fsck: {root}: {summary}")
        if problems and not (args.repair or args.delete):
            print("lva-fsck: run with --repair to quarantine damaged entries")
    return 1 if unresolved else 0


if __name__ == "__main__":
    raise SystemExit(main())
