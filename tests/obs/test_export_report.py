"""JSONL export round-trips and report rendering."""

import json

import pytest

from repro.obs import (
    Histogram,
    SpanKind,
    TraceRecorder,
    export_trace,
    flame_summary,
    load_trace,
    phase_breakdown,
    render_counters,
    render_phase_breakdown,
    summaries_of,
)


def make_recorder() -> TraceRecorder:
    recorder = TraceRecorder()
    trace = recorder.start_trace("write", 0.0, key="k1")
    attempt = recorder.start_span(
        trace, trace, "attempt", SpanKind.ATTEMPT, 0.0, op="write", number=1
    )
    phase = recorder.start_span(
        trace, attempt, "phase/version", SpanKind.PHASE, 0.0, op="write",
        quorum=3,
    )
    recorder.end_span(phase, 4.0)
    phase = recorder.start_span(
        trace, attempt, "phase/prepare", SpanKind.PHASE, 4.0, op="write",
        quorum=2,
    )
    recorder.end_span(phase, 6.0)
    recorder.end_span(attempt, 6.0)
    recorder.end_span(trace, 6.0, attempts=1)
    recorder.count("message.sent", "PrepareMessage", 2)
    recorder.observe("lock.wait", 1.25)
    return recorder


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        recorder = make_recorder()
        path = export_trace(recorder, tmp_path / "trace.jsonl")
        with path.open() as handle:
            records = [json.loads(line) for line in handle]
        assert {r["record"] for r in records} == {"span", "counter", "metric"}

        loaded = load_trace(path)
        assert loaded.spans == recorder.spans
        assert loaded.counters == recorder.counters
        assert summaries_of(loaded)["lock.wait"]["count"] == 1

    def test_unknown_record_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown record"):
            load_trace(path)

    def test_blank_lines_skipped(self, tmp_path):
        recorder = make_recorder()
        path = export_trace(recorder, tmp_path / "trace.jsonl")
        path.write_text(path.read_text() + "\n\n")
        assert load_trace(path).spans == recorder.spans


class TestPhaseBreakdown:
    def test_stats_per_phase(self):
        stats = phase_breakdown(make_recorder().finished_spans())
        by_phase = {(s.op, s.phase): s for s in stats}
        version = by_phase[("write", "phase/version")]
        assert version.count == 1
        assert version.mean == version.p50 == version.total == 4.0
        assert ("write", "phase/prepare") in by_phase
        # attempts and operations are not "phases"
        assert all(s.phase.startswith(("phase/", "lock", "unavail"))
                   for s in stats)

    def test_render_contains_rows(self):
        text = render_phase_breakdown(
            phase_breakdown(make_recorder().finished_spans())
        )
        assert "phase/version" in text and "phase/prepare" in text

    def test_render_empty(self):
        assert "no timed spans" in render_phase_breakdown([])


class TestFlameAndTrace:
    def test_flame_summary_nests_and_counts(self):
        text = flame_summary(make_recorder())
        lines = text.splitlines()
        assert "flame summary (1 traces, 4 spans)" in lines[0]
        # children indented under parents, alphabetical within a level
        write_idx = next(
            i for i, line in enumerate(lines) if line.startswith("write")
        )
        assert lines[write_idx + 1].startswith("  attempt")
        assert "phase/prepare" in lines[write_idx + 2]
        assert "phase/version" in lines[write_idx + 3]

    def test_render_counters(self):
        assert "PrepareMessage" in render_counters(make_recorder())
        assert "no counters" in render_counters(TraceRecorder())


class TestHistogram:
    def test_bucketing_with_overflow(self):
        histogram = Histogram(bounds=[1.0, 2.0, 4.0])
        histogram.extend([0.5, 1.5, 3.0, 100.0])
        assert histogram.counts == [1, 1, 1, 1]
        assert histogram.total == 4

    def test_exponential_bounds(self):
        histogram = Histogram.exponential(start=1.0, factor=2.0, buckets=3)
        assert histogram.bounds == [1.0, 2.0, 4.0]

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds=[])
        with pytest.raises(ValueError):
            Histogram(bounds=[2.0, 1.0])

    def test_render(self):
        histogram = Histogram(bounds=[1.0]).extend([0.5, 0.7, 2.0])
        assert "#" in histogram.render()
