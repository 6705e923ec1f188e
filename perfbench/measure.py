"""The benchmark's own arithmetic, kept free of the repository's code.

* percentiles with the sample count behind them (nearest rank);
* the parser for the experiments CLI's ``sweep:`` summary line and the
  cold/warm rules checked against it;
* table grids read from the CLI's ``--json`` output, and their
  cell-by-cell comparison with the pinned tables;
* the self-time accounting of one traced process.

``perfbench/tests`` tests these functions without running a simulation.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

# --------------------------------------------------------------------- #
# Percentiles                                                           #
# --------------------------------------------------------------------- #


def _rank(count: int, pct: int) -> int:
    """The 1-based nearest rank of the ``pct``-th percentile of ``count``."""
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile {pct} outside 0..100")
    return max(1, -(-count * pct // 100))


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (an integer 0..100), by nearest rank."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def beyond(count: int, pct: int) -> int:
    """How many of ``count`` samples rank above the ``pct``-th percentile."""
    if count == 0:
        return 0
    return count - _rank(count, pct)


def tail_percentile(values: Sequence[float], pct: int, need: int = 10) -> Optional[float]:
    """The percentile, or None when fewer than ``need`` samples lie beyond it."""
    if beyond(len(values), pct) < need:
        return None
    return percentile(values, pct)


def quartile_spread(values: Sequence[float]) -> float:
    """The distance between the first and third quartile, as a share of the
    median, with the quartiles of ``statistics.quantiles(values, n=4)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


# --------------------------------------------------------------------- #
# The ``sweep:`` summary line                                           #
# --------------------------------------------------------------------- #

_SWEEP_LINE = re.compile(
    r"sweep: (?P<unique_points>\d+) unique points \((?P<requested_points>\d+) requested\), "
    r"(?P<baselines>\d+) baselines \((?P<precise_computed>\d+) computed\), "
    r"(?P<technique_computed>\d+) technique runs, (?P<disk_hits>\d+) disk hits, "
    r"(?P<elapsed>\d+(?:\.\d+)?)s"
    r"(?:, (?P<fullsystem_computed>\d+) replays, (?P<traces_captured>\d+) traces captured "
    r"\((?P<trace_store_hits>\d+) store hits\))?"
    r"(?: \[(?P<extras>[^\]]*)\])?"
)


def parse_sweep_line(output: str) -> Optional[Dict[str, object]]:
    """The fields of the first ``sweep:`` line of ``output``, or None.

    Counts are ints (the replay counts are 0 when the line has no replay
    part), ``elapsed`` is a float and ``extras`` lists the bracketed notes
    (retries, timeouts, pool rebuilds, failures).

    Raises:
        ValueError: for a ``sweep:`` line of unknown shape.
    """
    for line in output.splitlines():
        if not line.startswith("sweep: "):
            continue
        match = _SWEEP_LINE.fullmatch(line.rstrip())
        if match is None:
            raise ValueError(f"unrecognised sweep summary: {line!r}")
        fields: Dict[str, object] = {}
        for name, text in match.groupdict().items():
            if name == "extras":
                fields[name] = [part.strip() for part in text.split(",")] if text else []
            elif name == "elapsed":
                fields[name] = float(text)
            else:
                fields[name] = int(text) if text is not None else 0
        return fields
    return None


def cold_sweep_problems(sweep: Mapping[str, object], traces: int) -> List[str]:
    """Why a cold run's sweep line breaks the cold rules (empty if it holds).

    A cold run computes every unique baseline and captures each of the
    ``traces`` distinct traces. (Its replays then read those traces back
    from the store, so store hits are expected.)
    """
    problems = []
    if sweep["precise_computed"] != sweep["baselines"]:
        problems.append(
            f"cold run computed {sweep['precise_computed']} of "
            f"{sweep['baselines']} baselines"
        )
    if sweep["traces_captured"] != traces:
        problems.append(f"cold run captured {sweep['traces_captured']} of {traces} traces")
    if sweep["extras"]:
        problems.append(f"cold run reported {', '.join(sweep['extras'])}")
    return problems


def warm_sweep_problems(sweep: Mapping[str, object]) -> List[str]:
    """Why a warm run's sweep line breaks the warm rules (empty if it holds).

    A warm run computes nothing and captures nothing.
    """
    problems = [
        f"warm run has {name}={sweep[name]}"
        for name in (
            "precise_computed",
            "technique_computed",
            "fullsystem_computed",
            "traces_captured",
        )
        if sweep[name]
    ]
    if sweep["extras"]:
        problems.append(f"warm run reported {', '.join(sweep['extras'])}")
    return problems


# --------------------------------------------------------------------- #
# Tables                                                                #
# --------------------------------------------------------------------- #


def table_grid(result: Mapping[str, object]) -> Dict[str, object]:
    """The cells that one entry of the CLI's ``--json`` output renders.

    The layout follows ``ExperimentResult.format_table``: one row per
    workload in first-seen order, one column per series, NaN (printed as
    ``FAILED``) where a series has no value for a row, and the ``average``
    row last.
    """
    series: Mapping[str, Mapping[str, float]] = result["series"]  # type: ignore[assignment]
    averages: Mapping[str, float] = result["averages"]  # type: ignore[assignment]
    labels = list(series)
    rows: List[str] = []
    for column in series.values():
        for row in column:
            if row not in rows:
                rows.append(row)
    cells = [[series[label].get(row, math.nan) for label in labels] for row in rows]
    cells.append([averages[label] for label in labels])
    return {"name": result["name"], "labels": labels, "rows": rows + ["average"], "cells": cells}


def same_cell(expected: object, actual: object) -> bool:
    """Exact equality, except that NaN equals NaN."""
    if expected == actual:
        return True
    return (
        isinstance(expected, float)
        and isinstance(actual, float)
        and math.isnan(expected)
        and math.isnan(actual)
    )


def _cells(grid: Mapping[str, object]) -> Dict[Tuple[str, str], object]:
    labels: Sequence[str] = grid["labels"]  # type: ignore[assignment]
    rows: Sequence[str] = grid["rows"]  # type: ignore[assignment]
    values: Sequence[Sequence[object]] = grid["cells"]  # type: ignore[assignment]
    return {
        (row, label): value
        for row, line in zip(rows, values)
        for label, value in zip(labels, line)
    }


def compare_tables(
    expected: Sequence[Mapping[str, object]], actual: Sequence[Mapping[str, object]]
) -> Tuple[int, int]:
    """(differing cells, cells compared) between two lists of table grids.

    Tables pair up by name. A cell or a whole table present on one side
    only counts as differing.
    """
    want_tables = {grid["name"]: _cells(grid) for grid in expected}
    got_tables = {grid["name"]: _cells(grid) for grid in actual}
    differing = total = 0
    for name in want_tables.keys() | got_tables.keys():
        want = want_tables.get(name, {})
        got = got_tables.get(name, {})
        for key in want.keys() | got.keys():
            total += 1
            if key not in want or key not in got or not same_cell(want[key], got[key]):
                differing += 1
    return differing, total


# --------------------------------------------------------------------- #
# Trace accounting                                                      #
# --------------------------------------------------------------------- #


def process_accounting(dump: Mapping[str, object]) -> Dict[str, object]:
    """Split one traced process's wall time into layer self times.

    ``dump`` is what ``tracer.Recorder.dump`` writes: per timed function
    ``[calls, inclusive_ns, child_ns, child_calls]`` (``slots``), the
    layer of each function (``layers``), ``[ns, calls]`` of the spans
    opened at top level (``root``), the traced ``wall_ns`` and the
    calibrated timer cost of one call, split into the part inside the
    measured span (``timer_in_ns``) and the part its caller sees around
    it (``timer_out_ns``).

    A span's self time is its duration minus its child spans, minus the
    timer cost inside it and the cost that its child calls added around
    themselves. Returns ``layers`` (self ns per layer), ``timer_ns`` (all
    subtracted timer cost), ``unattributed_ns`` (wall time outside every
    top-level span) and ``wall_ns``; the parts add up to the wall time.
    """
    timer_in = float(dump["timer_in_ns"])  # type: ignore[arg-type]
    timer_out = float(dump["timer_out_ns"])  # type: ignore[arg-type]
    layer_of: Mapping[str, str] = dump["layers"]  # type: ignore[assignment]
    slots: Mapping[str, Sequence[int]] = dump["slots"]  # type: ignore[assignment]
    layers: Dict[str, float] = {}
    timer = 0.0
    for name, (calls, inclusive, child, child_calls) in slots.items():
        cost = timer_in * calls + timer_out * child_calls
        layer = layer_of[name]
        layers[layer] = layers.get(layer, 0.0) + inclusive - child - cost
        timer += cost
    root_ns, root_calls = dump["root"]  # type: ignore[misc]
    timer += timer_out * root_calls
    wall = float(dump["wall_ns"])  # type: ignore[arg-type]
    return {
        "layers": layers,
        "timer_ns": timer,
        "unattributed_ns": wall - root_ns - timer_out * root_calls,
        "wall_ns": wall,
    }


def accounting_problems(account: Mapping[str, object], tolerance: float = 0.01) -> List[str]:
    """Why one process's accounting does not hold (empty when it does).

    Layer self times, the subtracted timer cost and the unattributed time
    must add up to the wall time, and none may be negative by more than
    ``tolerance`` of the wall time (a timer cost subtracted too often, or
    a span longer than its process).
    """
    wall: float = account["wall_ns"]  # type: ignore[assignment]
    parts: Dict[str, float] = dict(account["layers"])  # type: ignore[arg-type]
    parts["timer"] = account["timer_ns"]  # type: ignore[assignment]
    parts["unattributed"] = account["unattributed_ns"]  # type: ignore[assignment]
    problems = []
    total = sum(parts.values())
    if abs(total - wall) > 1e-6 * max(wall, 1.0):
        problems.append(f"parts add up to {total:.0f} ns of a {wall:.0f} ns wall")
    for name, value in sorted(parts.items()):
        if value < -tolerance * wall:
            problems.append(f"{name} is negative: {value:.0f} ns of a {wall:.0f} ns wall")
    return problems
