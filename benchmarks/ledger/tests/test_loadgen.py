"""The generator's measuring rules, checked against stub clusters."""

import asyncio
import time
from types import SimpleNamespace

import loadgen
from loadgen import (
    ConsistencyChecker,
    OpenSegment,
    closed_loop,
    open_loop,
    percentile,
    segment_median,
    summarise_open,
)
from repro.obs.stats import linear_percentile
from workloads import OpStream


def outcome(version=1, value="v", success=True):
    return SimpleNamespace(
        success=success, value=value, timestamp=SimpleNamespace(version=version)
    )


class StubCluster:
    """Answers instantly, except that operation ``stall_at`` blocks the
    whole event loop for ``stall_s`` — a host stall, not a slow reply."""

    def __init__(self, stall_at=None, stall_s=0.0):
        self.calls = 0
        self.stall_at = stall_at
        self.stall_s = stall_s

    async def get(self, key):
        self.calls += 1
        if self.calls == self.stall_at:
            time.sleep(self.stall_s)
        await asyncio.sleep(0)
        return outcome(value="seed")

    async def put(self, key, value):
        return await self.get(key)


class AcceptAll(ConsistencyChecker):
    def end_read(self, key, floor, outcome):
        self.attempted += 1


def test_open_loop_times_from_the_due_time():
    # 40 reads due 5 ms apart; the 4th blocks the loop for 200 ms, so the
    # ~36 reads due during the stall are dispatched late.  Timed from
    # dispatch they would all look instant; timed from their due time the
    # stall shows in them.
    schedule = [0.005 * (i + 1) for i in range(40)]
    cluster = StubCluster(stall_at=4, stall_s=0.2)
    segments = asyncio.run(
        open_loop(cluster, OpStream(1, 1.0), AcceptAll(), schedule, 1, 1.0)
    )
    latencies = segments[0].read_s
    assert len(latencies) == 40
    delayed = [latency for latency in latencies[4:] if latency > 0.02]
    assert len(delayed) >= 25
    assert max(latencies) >= 0.15
    # ...and the generator reports how late it ran.
    assert max(segments[0].late_s) >= 0.15
    assert max(latencies[:3]) < 0.05


def test_open_loop_assigns_segments_by_due_time():
    schedule = [0.01, 0.02, 0.11, 0.12, 0.13]
    segments = asyncio.run(
        open_loop(StubCluster(), OpStream(1, 1.0), AcceptAll(), schedule, 2, 0.1)
    )
    assert [len(s.read_s) for s in segments] == [2, 3]


def test_closed_loop_cuts_segments_and_stops_its_clients():
    cluster = StubCluster()
    cpu = iter(range(100))
    result = asyncio.run(
        closed_loop(
            cluster, OpStream(1, 1.0), AcceptAll(), clients=4, segments=3,
            segment_seconds=0.05, cpu_seconds=lambda: float(next(cpu)),
        )
    )
    assert len(result.segments) == 3
    assert all(segment.ops > 0 for segment in result.segments)
    assert all(segment.cpu_s == 1.0 for segment in result.segments)
    assert result.ops == cluster.calls
    assert result.ops >= sum(segment.ops for segment in result.segments)


def test_segment_median_resists_one_stalled_segment():
    assert segment_median([1.0, 1.1, 277.0, 0.9, 1.2]) == 1.1
    assert segment_median([None, 2.0, None, 4.0]) == 3.0
    assert segment_median([None, None]) is None


def test_summarise_open_reports_p99_only_with_enough_samples():
    few = OpenSegment(read_s=[0.001] * 999, write_s=[0.002] * 10, late_s=[0.0])
    many = OpenSegment(read_s=[0.001] * 1000, write_s=[0.002] * 10, late_s=[0.0])
    summary = summarise_open([few, many])
    rows = summary["segments"]
    assert rows[0]["read_p99_ms"] is None
    assert rows[1]["read_p99_ms"] == 1.0
    assert summary["read_p50_ms"] == 1.0
    assert summary["write_p99_ms"] is None
    assert summary["samples_per_segment"] == 1009.5


def test_checker_flags_a_stale_read():
    checker = ConsistencyChecker()
    checker.begin_write("k0", "old")
    checker.end_write("k0", outcome(version=1))
    checker.begin_write("k0", "new")
    checker.end_write("k0", outcome(version=2))
    floor = checker.begin_read("k0")
    checker.end_read("k0", floor, outcome(version=1, value="old"))
    assert len(checker.violations) == 1
    assert "stale read" in checker.violations[0]


def test_checker_accepts_a_read_concurrent_with_a_write():
    checker = ConsistencyChecker()
    checker.begin_write("k0", "old")
    checker.end_write("k0", outcome(version=1))
    floor = checker.begin_read("k0")
    checker.begin_write("k0", "new")
    checker.end_write("k0", outcome(version=2))
    # Issued before version 2 was acknowledged: either value is allowed.
    checker.end_read("k0", floor, outcome(version=1, value="old"))
    checker.end_read("k0", floor, outcome(version=2, value="new"))
    assert checker.violations == []


def test_checker_flags_a_value_nobody_wrote():
    checker = ConsistencyChecker()
    checker.begin_write("k0", "real")
    checker.end_write("k0", outcome(version=1))
    checker.end_read("k0", checker.begin_read("k0"), outcome(1, "invented"))
    assert len(checker.violations) == 1
    assert "no put wrote" in checker.violations[0]


def test_checker_counts_failures_without_checking_them():
    checker = ConsistencyChecker()
    checker.end_read("k0", 5, outcome(success=False))
    checker.end_write("k0", outcome(success=False))
    assert (checker.attempted, checker.failed) == (2, 2)
    assert checker.violations == []


def test_percentiles_are_the_repos_linear_percentile(monkeypatch):
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    for fraction in (0.0, 0.5, 0.95, 0.99, 1.0):
        assert percentile(values, fraction) == linear_percentile(
            sorted(values), fraction
        )
    assert percentile([], 0.5) is None
    # No second implementation hides in the summary path.
    calls = []
    monkeypatch.setattr(
        loadgen, "linear_percentile",
        lambda ordered, fraction: calls.append(fraction) or 0.0,
    )
    summarise_open([OpenSegment(read_s=[0.1], write_s=[0.2], late_s=[0.0])])
    assert sorted(calls) == [0.5, 0.5, 0.99]
