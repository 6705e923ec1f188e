"""Tests for the columnar PackedTrace representation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.trace import TRACE_COLUMNS, LoadEvent, PackedTrace, Trace


def sample_events():
    return [
        LoadEvent(tid=0, pc=0x400, addr=0x1000, value=3.25, is_float=True,
                  approximable=True, gap=12),
        LoadEvent(tid=1, pc=0x404, addr=0x2000, value=-7, is_float=False,
                  approximable=False, gap=0),
        LoadEvent(tid=1, pc=0, addr=0x2040, value=0, is_float=False,
                  approximable=False, gap=3, is_store=True),
        LoadEvent(tid=3, pc=0x408, addr=0x3000, value=2**40, is_float=False,
                  approximable=True, gap=999),
        # A float-typed load whose precise value happens to be an int:
        # the value's Python type must survive packing independently of
        # the semantic is_float flag.
        LoadEvent(tid=0, pc=0x40C, addr=0x1040, value=5, is_float=True,
                  approximable=True, gap=1),
    ]


class TestRoundTrip:
    def test_pack_to_trace_is_lossless(self):
        original = Trace(sample_events())
        assert original.pack().to_trace().events == original.events

    def test_empty_trace_round_trips(self):
        packed = Trace().pack()
        assert len(packed) == 0
        assert packed.to_trace().events == []
        assert packed.total_instructions == 0

    def test_value_python_types_preserved(self):
        restored = Trace(sample_events()).pack().to_trace()
        assert isinstance(restored.events[0].value, float)
        assert isinstance(restored.events[1].value, int)
        assert restored.events[3].value == 2**40
        # is_float=True with an int value stays an int.
        assert restored.events[4].value == 5
        assert isinstance(restored.events[4].value, int)
        assert restored.events[4].is_float is True

    def test_store_events_preserved(self):
        restored = Trace(sample_events()).pack().to_trace()
        assert [e.is_store for e in restored.events] == [
            False, False, True, False, False,
        ]

    def test_total_instructions_match(self):
        trace = Trace(sample_events())
        assert trace.pack().total_instructions == trace.total_instructions

    def test_column_dtypes_are_canonical(self):
        packed = Trace(sample_events()).pack()
        for name, dtype in TRACE_COLUMNS:
            assert packed.columns()[name].dtype == np.dtype(dtype), name


class TestFromArrays:
    def test_casts_and_accepts_lists(self):
        packed = PackedTrace.from_arrays(
            {
                "tid": [0, 1],
                "pc": [1, 2],
                "addr": [16, 32],
                "value_f": [0.5, 0.0],
                "value_i": [0, 9],
                "value_is_int": [False, True],
                "is_float": [True, False],
                "approximable": [True, False],
                "gap": [0, 3],
                "is_store": [False, False],
            }
        )
        assert packed.value_list() == [0.5, 9]

    def test_legacy_columns_backfilled(self):
        """Files predating value_is_int/is_store load with the historical
        semantics: value type follows is_float, no stores."""
        packed = PackedTrace.from_arrays(
            {
                "tid": [0, 0],
                "pc": [1, 2],
                "addr": [16, 32],
                "value_f": [0.5, 7.0],
                "value_i": [0, 7],
                "is_float": [True, False],
                "approximable": [True, False],
                "gap": [0, 3],
            }
        )
        assert not packed.is_store.any()
        values = packed.value_list()
        assert isinstance(values[0], float) and isinstance(values[1], int)

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            PackedTrace.from_arrays(
                {
                    "tid": [0],
                    "pc": [1],
                    "addr": [16],
                    "value_f": [0.5],
                    "value_i": [0],
                    "value_is_int": [False],
                    "is_float": [True, False],  # ragged
                    "approximable": [True],
                    "gap": [0],
                    "is_store": [False],
                }
            )

    def test_missing_required_column_rejected(self):
        with pytest.raises(ValueError):
            PackedTrace.from_arrays({"is_float": [True]})


class TestViews:
    def test_event_tuples_match_events(self):
        trace = Trace(sample_events())
        tuples = trace.pack().event_tuples()
        assert tuples == [
            (e.pc, e.addr, e.value, e.is_float, e.approximable, e.gap, e.is_store)
            for e in trace.events
        ]

    def test_thread_order_is_first_appearance(self):
        assert Trace(sample_events()).pack().thread_order() == [0, 1, 3]

    def test_per_thread_matches_object_split(self):
        trace = Trace(sample_events())
        object_split = trace.per_thread()
        packed_split = trace.pack().per_thread()
        assert list(packed_split) == list(object_split)
        for tid, sub in packed_split.items():
            assert sub.to_trace().events == object_split[tid]

    def test_per_core_indices_concatenates_whole_streams(self):
        # tids 0, 1, 3 on 2 cores: core 0 <- tid 0; core 1 <- tid 1 then 3,
        # whole streams concatenated in first-appearance order.
        packed = Trace(sample_events()).pack()
        queues = packed.per_core_indices(2)
        assert list(queues) == [0, 1]
        assert queues[0].tolist() == [0, 4]
        assert queues[1].tolist() == [1, 2, 3]

    def test_select_reorders_rows(self):
        packed = Trace(sample_events()).pack()
        reversed_trace = packed.select(np.arange(len(packed))[::-1]).to_trace()
        assert reversed_trace.events == list(reversed(packed.to_trace().events))

    def test_nbytes_positive(self):
        assert Trace(sample_events()).pack().nbytes > 0


class TestTraceInit:
    def test_default_is_independent_empty_list(self):
        a, b = Trace(), Trace()
        a.append(sample_events()[0])
        assert len(a) == 1 and len(b) == 0

    def test_per_thread_preserves_interleaved_order(self):
        events = [
            LoadEvent(tid=i % 2, pc=i, addr=i * 64, value=i, is_float=False,
                      approximable=False, gap=0)
            for i in range(10)
        ]
        streams = Trace(events).per_thread()
        assert [e.pc for e in streams[0]] == [0, 2, 4, 6, 8]
        assert [e.pc for e in streams[1]] == [1, 3, 5, 7, 9]


class TestEdgeCaseTraces:
    """Degenerate traces (empty, store-only, single-event) must round-trip
    and replay identically as a Trace, as a PackedTrace and through the
    object reference."""

    @staticmethod
    def _edge_traces():
        return {
            "empty": Trace(),
            "store_only": Trace([
                LoadEvent(tid=0, pc=0, addr=0x40 * i, value=0, is_float=False,
                          approximable=False, gap=i, is_store=True)
                for i in range(3)
            ]),
            "single_load": Trace([
                LoadEvent(tid=0, pc=0x400, addr=0x1000, value=1.5, is_float=True,
                          approximable=True, gap=7)
            ]),
            "single_store": Trace([
                LoadEvent(tid=0, pc=0, addr=0x1000, value=0, is_float=False,
                          approximable=False, gap=0, is_store=True)
            ]),
        }

    @pytest.mark.parametrize("name", ["empty", "store_only", "single_load",
                                      "single_store"])
    def test_round_trip(self, name):
        trace = self._edge_traces()[name]
        packed = trace.pack()
        assert len(packed) == len(trace)
        assert packed.to_trace().events == trace.events

    @pytest.mark.parametrize("name", ["empty", "store_only", "single_load",
                                      "single_store"])
    def test_replays_identically_on_all_paths(self, name):
        from repro import Mode, TraceSimulator
        from tests.sim.reference import object_replay

        trace = self._edge_traces()[name]
        reference = object_replay(TraceSimulator(Mode.LVA), trace)
        assert TraceSimulator(Mode.LVA).replay(trace) == reference
        assert TraceSimulator(Mode.LVA).replay(trace.pack()) == reference
