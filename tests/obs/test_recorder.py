"""Unit tests for the trace recorder and span model."""

import math

from repro.obs import (
    NULL_RECORDER,
    Span,
    SpanKind,
    TraceRecorder,
    linear_percentile,
)


class TestNullRecorder:
    def test_disabled_and_inert(self):
        assert NULL_RECORDER.enabled is False
        assert NULL_RECORDER.start_trace("read", 0.0) == 0
        assert NULL_RECORDER.start_span(0, 0, "x", SpanKind.PHASE, 0.0) == 0
        # none of these may raise or allocate state
        NULL_RECORDER.end_span(0, 1.0)
        NULL_RECORDER.event(0, 0, "timeout", 1.0)
        NULL_RECORDER.count("message.sent", "ReadRequest")
        NULL_RECORDER.observe("lock.wait", 1.0)
        assert NULL_RECORDER.singleton_trace("failure_detector") == 0


class TestTraceRecorder:
    def test_trace_and_span_lifecycle(self):
        recorder = TraceRecorder()
        trace = recorder.start_trace("write", 1.0, key="k1")
        child = recorder.start_span(
            trace, trace, "phase/version", SpanKind.PHASE, 2.0, quorum=3
        )
        recorder.end_span(child, 5.0)
        recorder.end_span(trace, 6.0, status="ok", attempts=1)

        spans = recorder.finished_spans()
        assert [s.name for s in spans] == ["write", "phase/version"]
        root, phase = spans
        assert root.trace_id == root.span_id == trace
        assert root.parent_id is None
        assert root.attributes["key"] == "k1"
        assert root.attributes["attempts"] == 1
        assert phase.parent_id == trace
        assert phase.duration == 3.0
        assert recorder.open_spans() == []

    def test_end_span_is_idempotent(self):
        recorder = TraceRecorder()
        trace = recorder.start_trace("read", 0.0)
        recorder.end_span(trace, 4.0, status="ok")
        recorder.end_span(trace, 9.0, status="timeout")
        assert recorder.spans[trace].end == 4.0
        assert recorder.spans[trace].status == "ok"

    def test_end_unknown_or_zero_span_is_noop(self):
        recorder = TraceRecorder()
        recorder.end_span(0, 1.0)
        recorder.end_span(42, 1.0)
        assert recorder.spans == {}

    def test_event_is_a_closed_point_span(self):
        recorder = TraceRecorder()
        trace = recorder.start_trace("read", 0.0)
        recorder.event(trace, trace, "timeout", 3.0, stage="read")
        events = [s for s in recorder.spans.values() if s.kind is SpanKind.EVENT]
        assert len(events) == 1
        assert events[0].start == events[0].end == 3.0
        assert events[0].duration == 0.0

    def test_counters_accumulate(self):
        recorder = TraceRecorder()
        recorder.count("message.sent", "ReadRequest")
        recorder.count("message.sent", "ReadRequest")
        recorder.count("message.dropped.loss", "ReadRequest")
        assert recorder.counters["message.sent"]["ReadRequest"] == 2
        assert recorder.counters["message.dropped.loss"]["ReadRequest"] == 1

    def test_metrics_and_summaries(self):
        recorder = TraceRecorder()
        for value in (1.0, 2.0, 3.0):
            recorder.observe("lock.wait", value)
        summary = recorder.metric_summaries()["lock.wait"]
        assert summary["count"] == 3
        assert summary["mean"] == 2.0
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0

    def test_traces_grouping(self):
        recorder = TraceRecorder()
        a = recorder.start_trace("read", 0.0)
        b = recorder.start_trace("write", 1.0)
        recorder.start_span(a, a, "phase/read", SpanKind.PHASE, 1.0)
        grouped = recorder.traces()
        assert set(grouped) == {a, b}
        assert len(grouped[a]) == 2 and len(grouped[b]) == 1


class TestSpanSerialisation:
    def test_round_trip(self):
        span = Span(
            trace_id=7, span_id=9, parent_id=7, name="phase/commit",
            kind=SpanKind.PHASE, start=1.5, end=4.5, status="ok",
            attributes={"quorum": 3, "op": "write"},
        )
        assert Span.from_dict(span.to_dict()) == span


class TestLinearPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(linear_percentile([], 0.5))

    def test_out_of_range_fraction_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            linear_percentile([1.0], 1.5)
