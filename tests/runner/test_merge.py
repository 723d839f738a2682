"""Merge paths: monitors, summaries, histograms, recorders, sweeps, MC."""

import math
from collections import Counter

import pytest

from repro.analysis.sweeps import sweep_configurations
from repro.obs.recorder import TraceRecorder
from repro.obs.spans import SpanKind
from repro.obs.stats import Histogram
from repro.runner.merge import merge_availability, merge_monitors, merge_series
from repro.sim import SimulationConfig, WorkloadSpec, simulate
from repro.sim.monitor import Monitor, OperationSummary


def _run(seed: int, trace: bool = False, on_outcome=None) -> Monitor:
    from repro.core import from_spec

    config = SimulationConfig(
        tree=from_spec("1-3-5"),
        workload=WorkloadSpec(operations=40, read_fraction=0.5),
        seed=seed,
        trace=trace,
    )
    return simulate(config, on_outcome=on_outcome).monitor


# ----------------------------------------------------------------------
# OperationSummary / Monitor
# ----------------------------------------------------------------------


def test_summary_merge_adds_counters_and_concatenates_latencies():
    a = OperationSummary(
        attempted=3, succeeded=2, failed=1, total_attempts=4,
        total_quorum_size=6, total_version_quorum_size=2,
        total_replicas_contacted=8, latencies=[1.0, 2.0],
        failure_latencies=[9.0], failure_reasons=Counter({"timeout": 1}),
    )
    b = OperationSummary(
        attempted=2, succeeded=1, failed=1, total_attempts=2,
        total_quorum_size=3, total_version_quorum_size=1,
        total_replicas_contacted=4, latencies=[3.0],
        failure_latencies=[7.0], failure_reasons=Counter({"no_quorum": 1}),
    )
    merged = a.merge(b)
    assert merged is a
    assert a.attempted == 5 and a.succeeded == 3 and a.failed == 2
    assert a.total_attempts == 6
    assert a.total_quorum_size == 9
    assert a.latencies == [1.0, 2.0, 3.0]
    assert a.failure_latencies == [9.0, 7.0]
    assert a.failure_reasons == Counter({"timeout": 1, "no_quorum": 1})


def test_monitor_merge_equals_recording_all_outcomes_in_order():
    outcomes = []
    first = _run(1, on_outcome=outcomes.append)
    second = _run(2, on_outcome=outcomes.append)
    replay = Monitor(replica_ids=first._replica_ids)
    for outcome in outcomes:
        replay.record(outcome)
    merged = merge_monitors([first, second])
    assert merged is first
    assert merged.reads == replay.reads
    assert merged.writes == replay.writes
    assert merged._read_touches == replay._read_touches
    assert merged._write_touches == replay._write_touches
    assert merged.summary() == replay.summary()


def test_monitor_merge_rejects_replica_mismatch():
    a = Monitor(replica_ids=(0, 1, 2))
    b = Monitor(replica_ids=(0, 1))
    with pytest.raises(ValueError, match="replica sets"):
        a.merge(b)


def test_merge_monitors_requires_at_least_one():
    with pytest.raises(ValueError):
        merge_monitors([])


def test_monitor_merge_folds_trace_recorders():
    first, second = _run(1, trace=True), _run(2, trace=True)
    spans_before = len(first.recorder.spans)
    spans_other = len(second.recorder.spans)
    counters_other = {
        group: Counter(counts)
        for group, counts in second.recorder.counters.items()
    }
    first.merge(second)
    assert len(first.recorder.spans) == spans_before + spans_other
    for group, counts in counters_other.items():
        for name, count in counts.items():
            assert first.recorder.counters[group][name] >= count


# ----------------------------------------------------------------------
# TraceRecorder
# ----------------------------------------------------------------------


def test_recorder_merge_renumbers_span_ids():
    a, b = TraceRecorder(), TraceRecorder()
    for recorder in (a, b):
        trace = recorder.start_trace("op", at=0.0)
        child = recorder.start_span(trace, trace, "phase", SpanKind.PHASE, at=0.1)
        recorder.end_span(child, at=0.5)
        recorder.end_span(trace, at=1.0)
        recorder.count("message.sent", "ReadRequest", 2)
        recorder.observe("lock.wait", 0.25)
    a.merge(b)
    assert len(a.spans) == 4
    # Ids stay unique and child links stay internally consistent.
    assert sorted(a.spans) == sorted({s.span_id for s in a.spans.values()})
    merged_children = [s for s in a.spans.values() if s.parent_id is not None]
    for child in merged_children:
        assert child.parent_id in a.spans
        assert a.spans[child.parent_id].trace_id == child.trace_id
    assert a.counters["message.sent"]["ReadRequest"] == 4
    assert a.metrics["lock.wait"] == [0.25, 0.25]


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------


def test_histogram_merge_adds_counts_elementwise():
    a = Histogram.exponential(1.0, 2.0, 6).extend([0.5, 1.5, 3.0])
    b = Histogram.exponential(1.0, 2.0, 6).extend([1.5, 100.0])
    expected = Histogram.exponential(1.0, 2.0, 6).extend(
        [0.5, 1.5, 3.0, 1.5, 100.0]
    )
    merged = a.merge(b)
    assert merged is a
    assert a.counts == expected.counts
    assert a.total == expected.total


def test_histogram_merge_rejects_mismatched_bounds():
    a = Histogram.exponential(1.0, 2.0, 6)
    b = Histogram.exponential(1.0, 3.0, 6)
    with pytest.raises(ValueError):
        a.merge(b)


# ----------------------------------------------------------------------
# FigureSeries
# ----------------------------------------------------------------------


def test_series_merge_concatenates_size_shards():
    quantities = ("read_cost", "write_cost")
    whole = sweep_configurations(quantities, sizes=(7, 15, 31, 63), p=0.7)
    left = sweep_configurations(quantities, sizes=(7, 15), p=0.7)
    right = sweep_configurations(quantities, sizes=(31, 63), p=0.7)
    assert merge_series([left, right]) == whole


def test_series_merge_rejects_mismatched_shards():
    a = sweep_configurations(("read_cost",), sizes=(7,), p=0.7)
    with pytest.raises(ValueError):
        a.merge(sweep_configurations(("write_cost",), sizes=(7,), p=0.7))
    with pytest.raises(ValueError):
        a.merge(sweep_configurations(("read_cost",), sizes=(7,), p=0.8))


def test_merge_series_requires_at_least_one():
    with pytest.raises(ValueError):
        merge_series([])


# ----------------------------------------------------------------------
# Monte-Carlo availability
# ----------------------------------------------------------------------


def test_merge_availability_is_sample_weighted_mean():
    merged = merge_availability([0.5, 1.0], [100, 300])
    assert merged == pytest.approx(0.875)
    assert merge_availability([0.25], [10]) == 0.25
    # fsum keeps the fold exact for long chunk lists.
    fractions = [0.1] * 1000
    assert merge_availability(fractions, [7] * 1000) == pytest.approx(
        math.fsum(0.1 * 7 for _ in range(1000)) / 7000
    )


def test_merge_availability_validates_inputs():
    with pytest.raises(ValueError):
        merge_availability([0.5], [1, 2])
    with pytest.raises(ValueError):
        merge_availability([], [])
    with pytest.raises(ValueError):
        merge_availability([0.5, 0.5], [0, 0])
