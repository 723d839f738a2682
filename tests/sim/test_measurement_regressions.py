"""Regression tests for the simulator's measurement/accounting bugs.

Each test here pins one of the fixed bugs and fails on the old code:

1. the monitor silently dropped failed operations' latencies;
2. the measured write cost ignored the version round's quorum;
3. ``_percentile`` used ``round()`` (banker's rounding) nearest-rank;
4. the coordinator never cleared stale commit acks between attempts, and
   released a lock on the lock-timeout path where none was ever granted.

(The fifth bug — the network rejecting drop/duplicate probability 1.0 —
is pinned in ``tests/sim/test_network.py``.)
"""

import random

import pytest

from repro.core.builder import from_spec
from repro.core.protocol import ArbitraryProtocol
from repro.sim.coordinator import (
    FailureReason,
    OperationOutcome,
    QuorumCoordinator,
    _OpContext,
)
from repro.sim.engine import SimulationConfig, simulate
from repro.sim.events import Scheduler
from repro.sim.locks import LockManager
from repro.sim.monitor import Monitor
from repro.sim.network import Network
from repro.sim.site import Site
from repro.sim.workload import WorkloadSpec


def outcome(op_type="read", success=True, started=0.0, finished=1.0, **kw):
    kw.setdefault("reason", FailureReason.NONE if success else FailureReason.TIMEOUT)
    return OperationOutcome(
        op_type=op_type, key="k", success=success,
        started_at=started, finished_at=finished, **kw
    )


class TestFailureLatencyAccounting:
    """Bug 1: failed operations' latencies vanished from the monitor."""

    def test_failure_latencies_recorded_separately(self):
        monitor = Monitor(replica_ids=(0, 1, 2))
        monitor.record(outcome(success=True, finished=5.0))
        monitor.record(outcome(success=False, finished=30.0))
        assert monitor.reads.latencies == [5.0]
        assert monitor.reads.failure_latencies == [30.0]
        assert monitor.reads.failure_latency_mean == 30.0
        assert monitor.reads.mean_latency == 5.0

    def test_summary_exposes_failure_latency(self):
        monitor = Monitor(replica_ids=(0,))
        monitor.record(outcome(success=False, finished=10.0))
        monitor.record(outcome("write", success=False, finished=30.0))
        summary = monitor.summary()
        assert summary["read_failure_latency_mean"] == 10.0
        assert summary["write_failure_latency_mean"] == 30.0
        assert summary["failure_latency_mean"] == 20.0
        assert monitor.failure_latency_mean == 20.0

    def test_failed_operations_really_are_slower(self):
        """End to end: timeouts and retries make failures expensive."""
        result = simulate(
            SimulationConfig(
                tree=from_spec("1-3-5"),
                workload=WorkloadSpec(operations=150, read_fraction=0.5),
                drop_probability=0.25,
                timeout=6.0,
                max_attempts=2,
                seed=9,
            )
        )
        monitor = result.monitor
        assert monitor.reads.failed + monitor.writes.failed > 0
        # every failed operation's latency is captured, none dropped
        assert len(monitor.reads.failure_latencies) == monitor.reads.failed
        assert len(monitor.writes.failure_latencies) == monitor.writes.failed
        assert monitor.failure_latency_mean > 0.0
        # failed writes burned at least one full quorum timeout
        assert monitor.writes.failure_latency_mean >= 6.0


class TestWriteCostAccounting:
    """Bug 2: the version round's quorum was missing from write cost."""

    def test_version_quorum_counted(self):
        monitor = Monitor(replica_ids=(0, 1, 2, 3, 4, 5, 6))
        monitor.record(
            outcome(
                "write",
                quorum=frozenset({0, 1, 2, 3}),
                version_quorum=frozenset({0, 5, 6}),
            )
        )
        assert monitor.writes.mean_cost == 4.0
        assert monitor.writes.mean_version_cost == 3.0
        assert monitor.writes.mean_total_cost == 7.0
        summary = monitor.summary()
        assert summary["write_cost"] == 4.0
        assert summary["write_version_cost"] == 3.0
        assert summary["write_cost_total"] == 7.0

    def test_simulated_write_total_reconciles(self):
        """Measured total = data quorum + version quorum, and the version
        round is real (non-zero) — the old report hid it entirely."""
        summary = simulate(
            SimulationConfig(
                tree=from_spec("1-3-5"),
                workload=WorkloadSpec(operations=100, read_fraction=0.5),
                seed=4,
            )
        ).summary()
        assert summary["write_version_cost"] > 0
        assert summary["write_cost_total"] == pytest.approx(
            summary["write_cost"] + summary["write_version_cost"]
        )
        assert summary["write_cost_total"] > summary["write_cost"]


class TestPercentileInterpolation:
    """Bug 3: nearest-rank with ``round()`` hit banker's rounding."""

    def summarize(self, latencies):
        from repro.sim.monitor import OperationSummary

        summary = OperationSummary()
        summary.latencies = list(latencies)
        return summary

    def test_n1(self):
        summary = self.summarize([10.0])
        assert summary.latency_percentile(0.0) == 10.0
        assert summary.latency_percentile(0.5) == 10.0
        assert summary.latency_percentile(1.0) == 10.0

    def test_n2_median_interpolates(self):
        # round(0.5) == 0 under banker's rounding: the old code reported
        # the *lower* of two values as the median.
        assert self.summarize([1.0, 2.0]).latency_percentile(0.5) == 1.5

    def test_n4(self):
        summary = self.summarize([4.0, 1.0, 3.0, 2.0])
        assert summary.latency_percentile(0.5) == 2.5
        assert summary.latency_percentile(0.25) == 1.75
        assert summary.latency_percentile(1.0) == 4.0

    def test_n5(self):
        summary = self.summarize([5.0, 1.0, 4.0, 2.0, 3.0])
        assert summary.latency_percentile(0.5) == 3.0
        assert summary.latency_percentile(0.95) == pytest.approx(4.8)
        assert summary.latency_percentile(0.0) == 1.0


class CoordinatorRig:
    """Coordinator + sites assembly."""

    def __init__(self):
        self.tree = from_spec("1-3-5")
        self.scheduler = Scheduler()
        self.network = Network(self.scheduler, random.Random(0), latency=1.0)
        self.sites = [Site(sid, self.network) for sid in range(self.tree.n)]
        self.locks = LockManager(self.scheduler)
        self.coordinator = QuorumCoordinator(
            sid=-1,
            network=self.network,
            system=ArbitraryProtocol(self.tree),
            locks=self.locks,
            detector=lambda sid: self.sites[sid].up,
            rng=random.Random(1),
            timeout=8.0,
            writer_id=self.tree.n,
        )
        self.outcomes = []


class TestCoordinatorStateRegressions:
    """Bug 4: stale acks across attempts."""

    def test_start_attempt_clears_stale_acks(self):
        # White-box: commit acks left over from a previous attempt would
        # let ``_on_ack`` complete a fresh attempt's commit early with the
        # wrong quorum's acknowledgements.
        rig = CoordinatorRig()
        ctx = _OpContext(
            op_type="write", key="k", value="v",
            on_done=rig.outcomes.append, lock_token=1, started_at=0.0,
        )
        ctx.attempts = 1
        ctx.acks.update({0, 1, 2})
        ctx.replies[0] = object()
        ctx.votes[0] = True
        rig.coordinator._start_attempt(ctx)
        assert ctx.acks == set()
        assert ctx.replies == {} and ctx.votes == {}
        assert ctx.attempts == 2
