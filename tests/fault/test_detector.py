"""Unit tests for the suspicion-based failure detector."""

import pytest

from repro.fault.detector import COUNTER_GROUP, SuspectList
from repro.obs.recorder import TraceRecorder


class TestSuspicion:
    def test_suspect_on_first_miss_by_default(self):
        suspects = SuspectList(probe_interval=10.0)
        suspects.record_timeout([3], now=0.0)
        assert suspects.is_suspected(3, now=0.0)
        assert suspects.suspected(now=0.0) == frozenset({3})
        assert suspects.suspicions_total == 1

    def test_threshold_requires_repeated_evidence(self):
        suspects = SuspectList(probe_interval=10.0, threshold=3)
        suspects.record_timeout([5], now=0.0)
        suspects.record_timeout([5], now=1.0)
        assert not suspects.is_suspected(5, now=1.0)
        suspects.record_timeout([5], now=2.0)
        assert suspects.is_suspected(5, now=2.0)

    def test_rehabilitation_after_probe_interval(self):
        suspects = SuspectList(probe_interval=10.0)
        suspects.record_timeout([1], now=5.0)
        assert suspects.is_suspected(1, now=14.9)
        assert not suspects.is_suspected(1, now=15.0)
        assert suspects.rehabilitations_total == 1
        # Evidence resets on rehabilitation: threshold counts start over.
        assert suspects.suspects_active == 0

    def test_repeated_evidence_extends_suspicion(self):
        suspects = SuspectList(probe_interval=10.0)
        suspects.record_timeout([1], now=0.0)
        suspects.record_timeout([1], now=8.0)
        assert suspects.is_suspected(1, now=15.0)  # extended to 18
        assert suspects.suspicions_total == 1  # still one suspicion episode

    def test_exoneration_clears_suspicion_and_evidence(self):
        suspects = SuspectList(probe_interval=10.0, threshold=2)
        suspects.record_timeout([2, 2], now=0.0)
        assert suspects.is_suspected(2, now=1.0)
        suspects.exonerate(2, now=1.0)
        assert not suspects.is_suspected(2, now=1.0)
        assert suspects.exonerations_total == 1
        # evidence was cleared, a single new miss is below threshold again
        suspects.record_timeout([2], now=2.0)
        assert not suspects.is_suspected(2, now=2.0)

    def test_exonerating_unsuspected_site_is_free(self):
        suspects = SuspectList()
        suspects.exonerate(9, now=0.0)
        assert suspects.exonerations_total == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SuspectList(probe_interval=0.0)
        with pytest.raises(ValueError):
            SuspectList(threshold=0)


class TestPreferred:
    """What quorum selection reads off the list.  Steering around the
    suspects is the chooser's job, tested in
    ``tests/quorums/test_selection_fastpath.py``."""

    def test_counters_snapshot(self):
        suspects = SuspectList(probe_interval=5.0)
        suspects.record_timeout([1, 2], now=0.0)
        suspects.note_avoided()
        suspects.exonerate(1, now=1.0)
        assert suspects.counters() == {
            "suspects_active": 1,
            "suspicions_total": 2,
            "rehabilitations_total": 0,
            "exonerations_total": 1,
            "selection_avoided": 1,
        }


class TestObservability:
    def test_transitions_emit_events_and_counters(self):
        recorder = TraceRecorder()
        suspects = SuspectList(probe_interval=10.0, recorder=recorder)
        suspects.record_timeout([7], now=1.0)
        suspects.exonerate(7, now=2.0)
        suspects.record_timeout([8], now=3.0)
        assert not suspects.is_suspected(8, now=20.0)  # rehabilitated
        suspects.note_avoided()

        counters = recorder.counters[COUNTER_GROUP]
        assert counters["suspected"] == 2
        assert counters["exonerated"] == 1
        assert counters["rehabilitated"] == 1
        assert counters["selection_avoided"] == 1

        trace_id = recorder.singleton_trace("failure_detector")
        events = [
            span.name for span in recorder.trace(trace_id)
            if span.trace_id == trace_id and span.span_id != trace_id
        ]
        assert events == ["suspected", "exonerated", "suspected",
                          "rehabilitated"]
        # every detector event carries the sid it concerns
        for span in recorder.trace(trace_id):
            if span.span_id != trace_id:
                assert "sid" in span.attributes

    def test_null_recorder_keeps_detector_silent_but_counting(self):
        suspects = SuspectList(probe_interval=10.0)
        suspects.record_timeout([1], now=0.0)
        assert suspects.suspicions_total == 1
