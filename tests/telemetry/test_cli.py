"""``lva-trace`` CLI: summaries, wall check, speedscope check."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.envspec import CACHE_DIR_ENV, NO_CACHE_ENV
from repro.telemetry.cli import check_wall, main, summarize
from repro.telemetry.profiling import Profiler
from repro.telemetry.tracing import TraceWriter, read_trace


def _write_trace(path, spans_s=(0.5, 0.5), wall_s=1.0, pids=1):
    """Hand-build a trace with known span durations and engine wall."""
    with TraceWriter(path) as writer:
        writer.emit("sweep.point.queued", point="p0")
        writer.emit("sweep.point.running", point="p0")
        for dur in spans_s:
            writer.emit(
                "span", name="sweep.point", dur_ns=int(dur * 1e9), point="p0"
            )
        writer.emit("sweep.point.done", point="p0", wall_s=spans_s[0])
        writer.emit("fault.memory", kind="bit_flip", addr=64)
        writer.emit("sweep.summary", elapsed_s=wall_s, failed=0)
    if pids > 1:
        records = read_trace(path)
        record = dict(records[0])
        record["pid"] = record["pid"] + 1
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    return path


class TestSummarize:
    def test_aggregates_spans_lifecycle_and_faults(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl")
        summary = summarize(read_trace(path))
        assert summary["records"] == 7
        assert summary["processes"] == 1
        assert summary["engine_wall_s"] == 1.0
        assert summary["point_lifecycle"] == {"queued": 1, "running": 1, "done": 1}
        assert summary["faults"] == {"fault.memory:bit_flip": 1}
        span = summary["spans"]["sweep.point"]
        assert span["count"] == 2
        assert abs(span["total_s"] - 1.0) < 1e-9
        assert abs(span["max_s"] - 0.5) < 1e-9
        assert summary["trace_window_s"] >= 0


class TestCheckWall:
    def test_spans_matching_wall_pass(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl", spans_s=(0.5, 0.48), wall_s=1.0)
        assert check_wall(summarize(read_trace(path)), tolerance_pct=5) is None

    def test_shortfall_fails(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl", spans_s=(0.2,), wall_s=1.0)
        error = check_wall(summarize(read_trace(path)), tolerance_pct=5)
        assert error is not None and "sum to" in error

    def test_serial_overshoot_fails(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl", spans_s=(0.8, 0.8), wall_s=1.0)
        error = check_wall(summarize(read_trace(path)), tolerance_pct=5)
        assert error is not None and "exceeding" in error

    def test_parallel_overshoot_is_legitimate(self, tmp_path):
        path = _write_trace(
            tmp_path / "t.jsonl", spans_s=(0.8, 0.8), wall_s=1.0, pids=2
        )
        assert check_wall(summarize(read_trace(path)), tolerance_pct=5) is None

    def test_missing_spans_fail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path) as writer:
            writer.emit("sweep.summary", elapsed_s=1.0)
        error = check_wall(summarize(read_trace(path)), tolerance_pct=5)
        assert error is not None and "no sweep.point spans" in error


def _write_served_trace(path, queued=2, cached=2, summary=True):
    """A trace of a sweep that served ``cached`` of its ``queued`` points
    from the caches and dispatched none."""
    with TraceWriter(path) as writer:
        for i in range(queued):
            writer.emit("sweep.point.queued", point=f"p{i}")
        for i in range(cached):
            writer.emit("sweep.point.cached", point=f"p{i}", source="disk")
        if summary:
            writer.emit("sweep.summary", elapsed_s=0.002, failed=0)
    return path


class TestCheckWallServedSweep:
    def test_every_point_served_passes(self, tmp_path):
        path = _write_served_trace(tmp_path / "t.jsonl")
        assert check_wall(summarize(read_trace(path)), tolerance_pct=5) is None

    def test_served_sweep_without_summary_fails(self, tmp_path):
        path = _write_served_trace(tmp_path / "t.jsonl", summary=False)
        error = check_wall(summarize(read_trace(path)), tolerance_pct=5)
        assert error is not None and "no sweep.point spans" in error

    def test_dispatched_point_without_span_fails(self, tmp_path):
        path = _write_served_trace(tmp_path / "t.jsonl", queued=2, cached=1)
        error = check_wall(summarize(read_trace(path)), tolerance_pct=5)
        assert error is not None and "no sweep.point spans" in error

    @pytest.mark.slow
    def test_warm_traced_fig13_rerender_passes(self, tmp_path):
        """The second of two identical runs finds all six points in the
        disk cache, so its trace has no point spans, and still passes."""
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        env[CACHE_DIR_ENV] = str(tmp_path / "cache")
        env.pop(NO_CACHE_ENV, None)
        trace = tmp_path / "warm.jsonl"
        argv = [sys.executable, "-m", "repro.experiments", "fig13", "--small"]
        argv += ["--jobs", "1", "--retries", "1"]
        for extra in ([], ["--trace", str(trace)]):
            subprocess.run(argv + extra, env=env, capture_output=True, check=True)
        summary = summarize(read_trace(trace))
        assert summary["point_lifecycle"] == {"cached": 6, "queued": 6}
        assert "sweep.point" not in summary["spans"]
        assert main([str(trace), "--check-wall", "5"]) == 0


class TestMain:
    def test_human_summary_exits_zero(self, tmp_path, capsys):
        path = _write_trace(tmp_path / "t.jsonl")
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "sweep.point" in out
        assert "engine" in out

    def test_json_output_parses(self, tmp_path, capsys):
        path = _write_trace(tmp_path / "t.jsonl")
        assert main([str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == 7

    def test_check_wall_flag(self, tmp_path, capsys):
        good = _write_trace(tmp_path / "good.jsonl")
        assert main([str(good), "--check-wall", "5"]) == 0
        bad = _write_trace(tmp_path / "bad.jsonl", spans_s=(0.1,), wall_s=1.0)
        assert main([str(bad), "--check-wall", "5"]) == 1

    def test_check_speedscope_flag(self, tmp_path, capsys):
        trace = _write_trace(tmp_path / "t.jsonl")
        profiler = Profiler()
        with profiler.frame("sweep"):
            pass
        profile = profiler.write_speedscope(tmp_path / "profile.json")
        assert main([str(trace), "--check-speedscope", str(profile)]) == 0
        (tmp_path / "broken.json").write_text('{"shared": {}}')
        assert (
            main([str(trace), "--check-speedscope", str(tmp_path / "broken.json")])
            == 1
        )

    def test_unparseable_trace_exits_one(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text("{nope\n")
        assert main([str(path)]) == 1
        assert "lva-trace" in capsys.readouterr().err
