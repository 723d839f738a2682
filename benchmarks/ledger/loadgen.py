"""The load generator: closed loop, open loop, and the consistency check.

One process, one thread: client tasks call ``cluster.get``/``cluster.put``
in the coordinator's own event loop, exactly as ``run_traffic`` does.
``cluster`` is anything with awaitable ``get(key)``/``put(key, value)``
returning an outcome with ``success``, ``value`` and
``timestamp.version`` — the real :class:`LocalCluster` or a test stub.
"""

from __future__ import annotations

import asyncio
import statistics
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.obs.stats import linear_percentile

from workloads import P99_MIN_SAMPLES, OpStream


def percentile(values: list[float], fraction: float) -> float | None:
    """``linear_percentile`` of unsorted ``values`` (``None`` when empty)."""
    if not values:
        return None
    return linear_percentile(sorted(values), fraction)


def segment_median(values: list[float | None]) -> float | None:
    """Median over the segments that produced a value.

    The median of per-segment statistics, not a pooled statistic: one
    host stall lands in one segment and moves one of five values.
    """
    present = [value for value in values if value is not None]
    return statistics.median(present) if present else None


class ConsistencyChecker:
    """Client-side check of every operation the generator issues.

    A successful read must return a version at least as high as the
    highest version acknowledged for its key *before the read was
    issued*, and a value some put (or the seeding pass) actually carried.
    """

    def __init__(self) -> None:
        self._acked: dict[str, int] = {}
        self._written: dict[str, set[Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []

    def begin_read(self, key: str) -> int:
        return self._acked.get(key, 0)

    def end_read(self, key: str, floor: int, outcome: Any) -> None:
        self.attempted += 1
        if not outcome.success:
            self.failed += 1
            return
        version = outcome.timestamp.version
        if version < floor:
            self.violations.append(
                f"stale read of {key}: version {version} < acknowledged {floor}"
            )
        if outcome.value not in self._written.get(key, ()):
            self.violations.append(
                f"read of {key} returned a value no put wrote: {outcome.value!r}"
            )

    def begin_write(self, key: str, value: Any) -> None:
        self._written.setdefault(key, set()).add(value)

    def end_write(self, key: str, outcome: Any) -> None:
        self.attempted += 1
        if not outcome.success:
            self.failed += 1
            return
        version = outcome.timestamp.version
        if version > self._acked.get(key, 0):
            self._acked[key] = version


async def run_op(
    cluster: Any, op: tuple[bool, str, str | None], checker: ConsistencyChecker
) -> tuple[bool, bool]:
    """Issue one checked operation; returns ``(is_read, success)``."""
    is_read, key, value = op
    if is_read:
        floor = checker.begin_read(key)
        outcome = await cluster.get(key)
        checker.end_read(key, floor, outcome)
    else:
        checker.begin_write(key, value)
        outcome = await cluster.put(key, value)
        checker.end_write(key, outcome)
    return is_read, outcome.success


# ---------------------------------------------------------------------
# closed loop: throughput and CPU per op at saturation
# ---------------------------------------------------------------------


@dataclass
class ClosedSegment:
    ops: int
    wall_s: float
    cpu_s: float

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.wall_s

    @property
    def cpu_us_per_op(self) -> float:
        return self.cpu_s / self.ops * 1e6


@dataclass
class ClosedResult:
    segments: list[ClosedSegment]
    ops: int = 0
    latency_total_s: float = 0.0

    @property
    def ops_per_s(self) -> float:
        return segment_median([s.ops_per_s for s in self.segments])

    @property
    def cpu_us_per_op(self) -> float:
        return segment_median([s.cpu_us_per_op for s in self.segments])


async def closed_loop(
    cluster: Any,
    stream: OpStream,
    checker: ConsistencyChecker,
    clients: int,
    segments: int,
    segment_seconds: float,
    cpu_seconds: Callable[[], float],
) -> ClosedResult:
    """``clients`` tasks each issue the next op as soon as theirs completes.

    ``cpu_seconds()`` is sampled at every segment edge; it returns the
    cumulative CPU seconds of every process serving the workload.
    """
    loop = asyncio.get_running_loop()
    result = ClosedResult(segments=[])
    running = True

    async def client() -> None:
        while running:
            started = loop.time()
            await run_op(cluster, stream.next(), checker)
            result.latency_total_s += loop.time() - started
            result.ops += 1

    tasks = [loop.create_task(client()) for _ in range(clients)]
    try:
        start = loop.time()
        mark = (start, result.ops, cpu_seconds())
        for index in range(segments):
            await asyncio.sleep(start + (index + 1) * segment_seconds - loop.time())
            now = (loop.time(), result.ops, cpu_seconds())
            result.segments.append(
                ClosedSegment(
                    ops=now[1] - mark[1],
                    wall_s=now[0] - mark[0],
                    cpu_s=now[2] - mark[2],
                )
            )
            mark = now
    finally:
        running = False
        await asyncio.gather(*tasks)
    return result


# ---------------------------------------------------------------------
# open loop: latency at one fixed rate, timed from the due time
# ---------------------------------------------------------------------


@dataclass
class OpenSegment:
    read_s: list[float] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)


async def open_loop(
    cluster: Any,
    stream: OpStream,
    checker: ConsistencyChecker,
    schedule: list[float],
    segments: int,
    segment_seconds: float,
) -> list[OpenSegment]:
    """Issue one op at every due time in ``schedule``, never waiting for
    a reply.  Latency runs from the *due* time, so a stall shows in the
    requests that were due during it; how late the generator itself
    dispatched is recorded beside it.
    """
    loop = asyncio.get_running_loop()
    result = [OpenSegment() for _ in range(segments)]

    async def one(due_at: float, segment: OpenSegment) -> None:
        is_read, success = await run_op(cluster, stream.next(), checker)
        if success:
            latency = loop.time() - due_at
            (segment.read_s if is_read else segment.write_s).append(latency)

    tasks = []
    start = loop.time()
    try:
        for offset in schedule:
            due_at = start + offset
            delay = due_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            segment = result[min(int(offset / segment_seconds), segments - 1)]
            segment.late_s.append(loop.time() - due_at)
            tasks.append(loop.create_task(one(due_at, segment)))
    finally:
        await asyncio.gather(*tasks)
    return result


def summarise_open(segments: list[OpenSegment]) -> dict[str, Any]:
    """Per-segment percentiles (ms) and their medians across segments."""

    def ms(values: list[float], fraction: float, min_samples: int = 1):
        if len(values) < min_samples:
            return None
        return percentile(values, fraction) * 1e3

    rows = [
        {
            "reads": len(s.read_s),
            "writes": len(s.write_s),
            "read_p50_ms": ms(s.read_s, 0.5),
            "write_p50_ms": ms(s.write_s, 0.5),
            "read_p99_ms": ms(s.read_s, 0.99, P99_MIN_SAMPLES),
            "write_p99_ms": ms(s.write_s, 0.99, P99_MIN_SAMPLES),
            "late_p99_ms": ms(s.late_s, 0.99),
        }
        for s in segments
    ]
    summary = {
        name: segment_median([row[name] for row in rows])
        for name in (
            "read_p50_ms", "write_p50_ms", "read_p99_ms", "write_p99_ms",
            "late_p99_ms",
        )
    }
    summary["samples_per_segment"] = segment_median(
        [row["reads"] + row["writes"] for row in rows]
    )
    summary["segments"] = rows
    return summary
