"""What the traced runs read out of a ``TraceRecorder``, on either backend.

Spans come from the coordinator's own ``recorder=`` argument; the wall
time of individual entry points comes from :class:`Stopwatch` shims the
benchmark installs around them from outside.
"""

from __future__ import annotations

import time
from typing import Any

from repro.obs.recorder import TraceRecorder
from repro.obs.report import phase_breakdown
from repro.obs.spans import SpanKind


class Stopwatch:
    """Accumulates wall time spent inside the calls it wraps."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def wrap(self, fn):
        def timed(*args):
            started = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.seconds += time.perf_counter() - started

        return timed


def coordinator_layers(
    recorder: TraceRecorder,
    lock_stats: Any,
    op_latency_total: float,
    to_ms: float,
) -> dict[str, float]:
    """Per-phase means, retries, lock waits and the reconciliation gap.

    ``op_latency_total`` is the summed latency of the traced operations
    as their caller saw it, in the recorder's time unit; ``to_ms`` scales
    that unit to milliseconds (1e3 for wall seconds, 1 for simulated
    time, where one unit is read as one millisecond).
    """
    # phase -> [total time, spans], reads and writes together.
    phases: dict[str, list[float]] = {}
    for stat in phase_breakdown(recorder.finished_spans()):
        entry = phases.setdefault(stat.phase, [0.0, 0])
        entry[0] += stat.total
        entry[1] += stat.count
    kinds = [span.kind for span in recorder.spans.values()]
    attempts = kinds.count(SpanKind.ATTEMPT)
    operations = kinds.count(SpanKind.OPERATION)

    def mean_ms(name: str) -> float:
        total, count = phases.get(name, (0.0, 0))
        return total / count * to_ms if count else 0.0

    lock_waits = recorder.metrics["lock.wait"]
    covered = sum(total for total, _ in phases.values())
    return {
        "locks.wait_ms_mean": sum(lock_waits) / len(lock_waits) * to_ms,
        "locks.waited_frac": lock_stats.granted_after_wait / lock_stats.granted,
        "coordinator.phase.lock_wait_ms": mean_ms("lock_wait"),
        "coordinator.phase.read_ms": mean_ms("phase/read"),
        "coordinator.phase.version_ms": mean_ms("phase/version"),
        "coordinator.phase.prepare_ms": mean_ms("phase/prepare"),
        "coordinator.phase.commit_ms": mean_ms("phase/commit"),
        "coordinator.retries_per_op": (attempts - operations) / operations,
        # Reconciliation (a): the share of what callers waited for that
        # no coordinator span covers.
        "coordinator.unattributed_frac": 1.0 - covered / op_latency_total,
    }
