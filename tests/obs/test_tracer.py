"""Tests for the structured event tracer, sinks and schema validators."""

import json
import math

import pytest

from repro.obs.tracer import (
    JsonlSink,
    MemorySink,
    Tracer,
    TraceSchemaError,
    validate_event,
    validate_events,
    validate_trace_file,
)


class TestTracer:
    def test_emit_records_required_fields(self):
        t = Tracer(wall_clock=lambda: 42.5)
        t.emit("query.submit", 3.0, "Q1", cost=100.0)
        (e,) = t.events
        assert e["seq"] == 0
        assert e["event"] == "query.submit"
        assert e["virtual_time"] == 3.0
        assert e["wall_time"] == 42.5
        assert e["query_id"] == "Q1"
        assert e["cost"] == 100.0

    def test_seq_increments(self):
        t = Tracer()
        for i in range(5):
            t.emit("tick", float(i))
        assert [e["seq"] for e in t.events] == [0, 1, 2, 3, 4]
        assert t.emitted == 5

    def test_none_virtual_time_allowed(self):
        t = Tracer()
        t.emit("projection.run", None, events=3)
        assert t.events[0]["virtual_time"] is None
        validate_event(t.events[0])

    def test_nan_extra_field_encoded_as_string(self):
        t = Tracer()
        t.emit("corrupt", 1.0, factor=float("nan"))
        assert t.events[0]["factor"] == "nan"
        json.dumps(t.events[0])  # must be serialisable

    def test_span_emits_begin_and_end(self):
        clock = iter([1.0, 1.25, 1.25, 2.0]).__next__
        t = Tracer(wall_clock=clock)
        with t.span("step", 5.0, "Q2"):
            pass
        begin, end = t.events
        assert begin["event"] == "step.begin"
        assert end["event"] == "step.end"
        assert end["wall_elapsed"] == pytest.approx(0.25)
        assert begin["query_id"] == end["query_id"] == "Q2"

    def test_span_emits_end_on_exception(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("risky", 0.0):
                raise RuntimeError("boom")
        assert [e["event"] for e in t.events] == ["risky.begin", "risky.end"]


class TestSinks:
    def test_jsonl_sink_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        t = Tracer(JsonlSink(path))
        t.emit("a", 0.0)
        t.emit("b", 1.0, "Q1", note="hi")
        t.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        events = [json.loads(line) for line in lines]
        assert events[0]["event"] == "a"
        assert events[1]["note"] == "hi"
        assert validate_trace_file(path) == 2

    def test_jsonl_sink_context_manager(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink:
            Tracer(sink).emit("x", 0.0)
        assert validate_trace_file(path) == 1

    def test_memory_sink_events_property(self):
        t = Tracer(MemorySink())
        t.emit("x", 0.0)
        assert len(t.events) == 1


class TestSchemaValidation:
    def _good(self, **over):
        e = {"seq": 0, "event": "x", "virtual_time": 1.0, "wall_time": 2.0}
        e.update(over)
        return e

    def test_valid_event_passes(self):
        validate_event(self._good())

    def test_missing_field_rejected(self):
        e = self._good()
        del e["wall_time"]
        with pytest.raises(TraceSchemaError):
            validate_event(e)

    def test_wrong_type_rejected(self):
        with pytest.raises(TraceSchemaError):
            validate_event(self._good(seq="0"))
        with pytest.raises(TraceSchemaError):
            validate_event(self._good(event=3))
        with pytest.raises(TraceSchemaError):
            validate_event(self._good(seq=True))  # bool is not an int here

    def test_empty_event_name_rejected(self):
        with pytest.raises(TraceSchemaError):
            validate_event(self._good(event=""))

    def test_negative_seq_rejected(self):
        with pytest.raises(TraceSchemaError):
            validate_event(self._good(seq=-1))

    def test_non_scalar_extra_rejected(self):
        with pytest.raises(TraceSchemaError):
            validate_event(self._good(payload={"nested": 1}))

    def test_non_dict_rejected(self):
        with pytest.raises(TraceSchemaError):
            validate_event([1, 2, 3])

    def test_stream_requires_increasing_seq(self):
        events = [self._good(seq=0), self._good(seq=0)]
        with pytest.raises(TraceSchemaError, match="not increasing"):
            validate_events(events)

    def test_trace_file_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0, "event": "x"\nnot json\n')
        with pytest.raises(TraceSchemaError, match="invalid JSON"):
            validate_trace_file(path)

    def test_every_emitted_event_validates(self):
        t = Tracer()
        t.emit("a", 0.0)
        t.emit("b", None, "Q1", n=1, f=1.5, s="x", flag=True, none=None)
        t.emit("c", 2.0, nan=float("nan"), inf=math.inf)
        assert validate_events(t.events) == 3
