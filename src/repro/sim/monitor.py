"""Measurement: per-replica load, availability, latency, message counts.

The monitor folds every :class:`~repro.sim.coordinator.OperationOutcome`
into the quantities the paper analyses and keeps no outcome (a caller
that needs them subscribes through ``on_outcome``):

* **measured load** — for each replica, the fraction of operations (of each
  kind) whose quorum contained it; the *system* load is the maximum over
  replicas, directly mirroring Definition 2.5 with the empirical operation
  mix as the strategy;
* **measured availability** — the success fraction (run the workload with
  ``max_attempts=1`` so retries don't mask failures);
* **measured cost** — mean quorum size per operation kind, reported both
  as the data quorum alone (the paper's m(R)/m(W)) and as the *total*
  replicas contacted — a write also runs the Section 3.2.2 version round
  against a read quorum, which the analytical write cost does not charge;
* latency percentiles (linear interpolation) and attempt counts, with
  failed operations' latencies tracked separately so timeout/retry cost
  stays visible;
* the run's trace recorder (``recorder``), whose span stream
  :func:`repro.obs.report.phase_breakdown` turns into a per-phase
  latency breakdown.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field

from repro.obs.recorder import NULL_RECORDER, NullRecorder
from repro.obs.stats import linear_percentile
from repro.sim.coordinator import OperationOutcome


@dataclass
class OperationSummary:
    """Aggregates for one operation kind (read or write)."""

    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    total_attempts: int = 0
    total_quorum_size: int = 0
    total_version_quorum_size: int = 0
    total_replicas_contacted: int = 0
    # C doubles: 8 B a sample, not a 24 B float plus an 8 B list slot.
    latencies: array = field(default_factory=lambda: array("d"))
    failure_latencies: array = field(default_factory=lambda: array("d"))
    failure_reasons: Counter = field(default_factory=Counter)

    @property
    def availability(self) -> float:
        """Success fraction (NaN when nothing ran)."""
        if self.attempted == 0:
            return math.nan
        return self.succeeded / self.attempted

    @property
    def mean_cost(self) -> float:
        """Mean *data* quorum size over successful operations.

        This is the measured counterpart of the paper's m(R)/m(W); see
        :attr:`mean_total_cost` for everything an operation contacted.
        """
        if self.succeeded == 0:
            return math.nan
        return self.total_quorum_size / self.succeeded

    @property
    def mean_version_cost(self) -> float:
        """Mean version-round quorum size over successful operations.

        Zero for reads; for writes this is the Section 3.2.2 "obtain the
        highest version number" round the data-quorum cost omits.
        """
        if self.succeeded == 0:
            return math.nan
        return self.total_version_quorum_size / self.succeeded

    @property
    def mean_total_cost(self) -> float:
        """Mean total replicas contacted (data + version rounds)."""
        if self.succeeded == 0:
            return math.nan
        return self.total_replicas_contacted / self.succeeded

    @property
    def mean_latency(self) -> float:
        """Mean simulated latency of successful operations."""
        if not self.latencies:
            return math.nan
        return sum(self.latencies) / len(self.latencies)

    @property
    def failure_latency_mean(self) -> float:
        """Mean simulated latency of *failed* operations.

        Failed operations burn real (simulated) time in timeouts, retries
        and lock waits; dropping them from latency accounting silently
        understated the cost of running at low availability.
        """
        if not self.failure_latencies:
            return math.nan
        return sum(self.failure_latencies) / len(self.failure_latencies)

    def latency_percentile(self, fraction: float) -> float:
        """Latency percentile (e.g. 0.5, 0.95) of successful operations."""
        return linear_percentile(sorted(self.latencies), fraction)

    def merge(self, other: "OperationSummary") -> "OperationSummary":
        """Fold ``other``'s aggregates into this summary (returns self).

        Merging is order-sensitive only through the latency samples, which
        are concatenated — the parallel runner folds shards in task order
        so a merged summary is identical to the serial one.
        """
        self.attempted += other.attempted
        self.succeeded += other.succeeded
        self.failed += other.failed
        self.total_attempts += other.total_attempts
        self.total_quorum_size += other.total_quorum_size
        self.total_version_quorum_size += other.total_version_quorum_size
        self.total_replicas_contacted += other.total_replicas_contacted
        self.latencies.extend(other.latencies)
        self.failure_latencies.extend(other.failure_latencies)
        self.failure_reasons.update(other.failure_reasons)
        return self


class Monitor:
    """Aggregates outcomes into the measured counterparts of the paper's
    analytical quantities."""

    def __init__(
        self,
        replica_ids: tuple[int, ...],
        recorder: NullRecorder = NULL_RECORDER,
    ) -> None:
        self._replica_ids = replica_ids
        #: The trace recorder the run was instrumented with (no-op unless
        #: tracing was enabled); phase breakdowns are built from it.
        self.recorder = recorder
        self.reads = OperationSummary()
        self.writes = OperationSummary()
        self._read_touches: Counter = Counter()
        self._write_touches: Counter = Counter()

    def record(self, outcome: OperationOutcome) -> None:
        """Fold one finished operation into the aggregates."""
        summary = self.reads if outcome.op_type == "read" else self.writes
        touches = (
            self._read_touches if outcome.op_type == "read" else self._write_touches
        )
        summary.attempted += 1
        summary.total_attempts += outcome.attempts
        if outcome.success:
            summary.succeeded += 1
            summary.total_quorum_size += len(outcome.quorum)
            summary.total_version_quorum_size += len(outcome.version_quorum)
            summary.total_replicas_contacted += len(outcome.quorum) + len(
                outcome.version_quorum
            )
            # finished_at - started_at == outcome.latency, without the
            # per-outcome property call on the monitor's hottest line.
            summary.latencies.append(outcome.finished_at - outcome.started_at)
            # Counter.update counts iterable elements in C — same result
            # as a per-sid += 1 loop, measurably cheaper per outcome.
            touches.update(outcome.quorum)
        else:
            summary.failed += 1
            summary.failure_latencies.append(
                outcome.finished_at - outcome.started_at
            )
            summary.failure_reasons[outcome.reason.value] += 1

    def merge(self, other: "Monitor") -> "Monitor":
        """Fold another monitor's measurements into this one (returns self).

        Both monitors must observe the same replica set.  Latency samples
        are concatenated, so folding shard monitors in task order
        reproduces the serial monitor exactly.  Trace recorders merge
        when both runs were traced (span ids are renumbered into this
        recorder's id space).
        """
        if other._replica_ids != self._replica_ids:
            raise ValueError(
                "cannot merge monitors over different replica sets: "
                f"{self._replica_ids} vs {other._replica_ids}"
            )
        self.reads.merge(other.reads)
        self.writes.merge(other.writes)
        self._read_touches.update(other._read_touches)
        self._write_touches.update(other._write_touches)
        if (
            self.recorder.enabled
            and other.recorder.enabled
            and hasattr(self.recorder, "merge")
        ):
            self.recorder.merge(other.recorder)
        return self

    # ------------------------------------------------------------------
    # measured load (Definition 2.5, empirically)
    # ------------------------------------------------------------------

    def measured_read_load(self) -> float:
        """Max over replicas of (read quorums containing it / reads done)."""
        if self.reads.succeeded == 0:
            return math.nan
        busiest = max(
            (self._read_touches.get(sid, 0) for sid in self._replica_ids),
            default=0,
        )
        return busiest / self.reads.succeeded

    def measured_write_load(self) -> float:
        """Max over replicas of (write quorums containing it / writes done)."""
        if self.writes.succeeded == 0:
            return math.nan
        busiest = max(
            (self._write_touches.get(sid, 0) for sid in self._replica_ids),
            default=0,
        )
        return busiest / self.writes.succeeded

    def per_replica_read_load(self) -> dict[int, float]:
        """Read-quorum participation fraction per replica."""
        if self.reads.succeeded == 0:
            return {sid: math.nan for sid in self._replica_ids}
        return {
            sid: self._read_touches.get(sid, 0) / self.reads.succeeded
            for sid in self._replica_ids
        }

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    @property
    def total_operations(self) -> int:
        """Reads plus writes attempted."""
        return self.reads.attempted + self.writes.attempted

    @property
    def failure_latency_mean(self) -> float:
        """Mean latency across every failed operation (reads and writes)."""
        latencies = self.reads.failure_latencies + self.writes.failure_latencies
        if not latencies:
            return math.nan
        return sum(latencies) / len(latencies)

    def summary(self) -> dict[str, float]:
        """A flat dict of the headline measured quantities.

        ``write_cost`` is the data quorum alone (comparable to the
        analytical m(W)); ``write_cost_total`` adds the read quorum that
        vouched for the version.  An overlapped write reaches the members
        the two share once, on the prepare, so it sends |R ∩ W| fewer
        requests than that sum.
        """
        return {
            "reads": self.reads.attempted,
            "writes": self.writes.attempted,
            "read_availability": self.reads.availability,
            "write_availability": self.writes.availability,
            "read_cost": self.reads.mean_cost,
            "write_cost": self.writes.mean_cost,
            "write_version_cost": self.writes.mean_version_cost,
            "write_cost_total": self.writes.mean_total_cost,
            "read_load": self.measured_read_load(),
            "write_load": self.measured_write_load(),
            "read_latency_mean": self.reads.mean_latency,
            "write_latency_mean": self.writes.mean_latency,
            "read_failure_latency_mean": self.reads.failure_latency_mean,
            "write_failure_latency_mean": self.writes.failure_latency_mean,
            "failure_latency_mean": self.failure_latency_mean,
        }
