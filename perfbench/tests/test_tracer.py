"""Tests of the span bookkeeping in ``perfbench/tracer.py``, on toy calls."""

import json

import measure
import tracer


def test_nested_spans_feed_the_parent_child_totals(tmp_path):
    recorder = tracer.Recorder(tmp_path)

    def inner(x):
        return x + 1

    timed_inner = recorder.wrap(inner, "toy:inner", "inner")

    def outer():
        return timed_inner(1) + timed_inner(2)

    timed_outer = recorder.wrap(outer, "toy:outer", "outer")
    recorder.start()
    assert timed_outer() == 5
    recorder.dump()

    dumped = json.loads((tmp_path / f"{dumped_pid(tmp_path)}.json").read_text())
    calls, inclusive, child, child_calls = dumped["slots"]["toy:outer"]
    inner_slot = dumped["slots"]["toy:inner"]
    assert (calls, child_calls) == (1, 2)
    assert inner_slot[0] == 2
    assert child == inner_slot[1]  # the parent saw exactly its children's time
    assert dumped["root"] == [inclusive, 1]
    account = measure.process_accounting(dumped)
    assert measure.accounting_problems(account) == []


def test_points_are_sampled_only_at_top_level(tmp_path):
    recorder = tracer.Recorder(tmp_path)
    point = recorder.wrap(lambda: None, "toy:point", "points", point=True)
    render = recorder.wrap(lambda: point(), "toy:render", "render")
    point()
    render()
    assert len(recorder.points_ns) == 1


def test_after_hook_sees_arguments_and_result(tmp_path):
    recorder = tracer.Recorder(tmp_path)
    seen = []
    double = recorder.wrap(
        lambda x: 2 * x, "toy:double", "toy", after=lambda args, result, ns: seen.append((args, result))
    )
    assert double(4) == 8
    assert seen == [((4,), 8)]


def test_summarize_reports_p90_only_with_ten_points_beyond(tmp_path):
    def cold(points):
        return {
            "pid": 1, "role": "main", "wall_ns": 10**9, "timer_in_ns": 0.0,
            "timer_out_ns": 0.0, "slots": {}, "layers": {}, "root": [0, 0],
            "points_ns": points, "counts": {}, "sweeps": [],
        }

    metrics, problems = tracer.summarize([cold([10**6] * 99)], [])
    assert problems == []
    assert metrics["sweep.point_s.count"] == 99
    assert metrics["sweep.point_s.p90"] == 0.0
    metrics, _ = tracer.summarize([cold(list(range(1, 101)))], [])
    assert metrics["sweep.point_s.p90"] == 90 / 1e9
    assert metrics["sweep.point_s.p50"] == 50 / 1e9


def dumped_pid(directory):
    (path,) = directory.glob("*.json")
    return path.stem
