"""Profiler frames, speedscope export/validation, cProfile wrapper."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.profiling import (
    Profiler,
    profile_to_text,
    validate_speedscope,
)


class TestFrames:
    def test_nested_frames_accumulate_timings(self):
        profiler = Profiler("test")
        with profiler.frame("outer"):
            with profiler.frame("inner"):
                pass
            with profiler.frame("inner"):
                pass
        timings = profiler.timings()
        assert set(timings) == {"outer", "inner"}
        assert timings["outer"] >= timings["inner"] >= 0.0

    def test_end_returns_duration(self):
        profiler = Profiler()
        profiler.begin("work")
        assert profiler.end("work") >= 0

    def test_mismatched_end_raises(self):
        profiler = Profiler()
        profiler.begin("outer")
        profiler.begin("inner")
        with pytest.raises(ConfigurationError, match="frame mismatch"):
            profiler.end("outer")

    def test_end_without_begin_raises(self):
        with pytest.raises(ConfigurationError):
            Profiler().end("never-opened")


class TestSpeedscope:
    def test_export_validates(self):
        profiler = Profiler("run")
        with profiler.frame("sweep"):
            with profiler.frame("point"):
                pass
        doc = profiler.to_speedscope()
        validate_speedscope(doc)
        assert doc["name"] == "run"
        assert {f["name"] for f in doc["shared"]["frames"]} == {"sweep", "point"}
        (profile,) = doc["profiles"]
        assert profile["unit"] == "nanoseconds"
        assert len(profile["events"]) == 4

    def test_still_open_frames_are_closed_in_export(self):
        profiler = Profiler()
        profiler.begin("outer")
        profiler.begin("inner")
        validate_speedscope(profiler.to_speedscope())

    def test_write_speedscope_round_trips(self, tmp_path):
        profiler = Profiler()
        with profiler.frame("work"):
            pass
        path = profiler.write_speedscope(tmp_path / "out" / "profile.json")
        validate_speedscope(json.loads(path.read_text()))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("shared"),
            lambda d: d.pop("profiles"),
            lambda d: d["profiles"][0].__setitem__("type", "sampled"),
            lambda d: d["profiles"][0]["events"][0].__setitem__("frame", 99),
            lambda d: d["profiles"][0]["events"].reverse(),
            lambda d: d["profiles"][0]["events"].pop(),
        ],
    )
    def test_validator_rejects_malformed_documents(self, mutate):
        profiler = Profiler()
        with profiler.frame("a"):
            with profiler.frame("b"):
                pass
        doc = profiler.to_speedscope()
        mutate(doc)
        with pytest.raises(ConfigurationError):
            validate_speedscope(doc)


class TestCProfileWrapper:
    def test_returns_result_and_stats_text(self):
        result, text = profile_to_text(lambda: sum(range(100)), limit=5)
        assert result == 4950
        assert "function calls" in text
