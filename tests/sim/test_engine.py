"""Unit tests for the end-to-end simulation engine."""

import math

import pytest

from repro.core.builder import from_spec
from repro.protocols.tree_quorum import TreeQuorumProtocol
from repro.sim.engine import SimulationConfig, simulate
from repro.sim.failures import BernoulliFailures
from repro.sim.workload import WorkloadSpec


def assert_summaries_equal(a: dict, b: dict) -> None:
    """Dict equality where NaN == NaN (absent data is still deterministic)."""
    assert a.keys() == b.keys()
    for key in a:
        va, vb = a[key], b[key]
        if isinstance(va, float) and math.isnan(va):
            assert isinstance(vb, float) and math.isnan(vb), key
        else:
            assert va == vb, key


class TestConfigResolution:
    def test_tree_config(self):
        config = SimulationConfig(tree=from_spec("1-3-5"))
        system, n = config.resolve()
        assert n == 8
        assert system.num_write_quorums == 2

    def test_system_config(self):
        system = TreeQuorumProtocol(7)
        config = SimulationConfig(system=system)
        resolved, n = config.resolve()
        assert n == 7 and resolved is system

    def test_missing_everything_rejected(self):
        with pytest.raises(ValueError, match="provide either"):
            SimulationConfig().resolve()

    def test_tree_and_system_together_rejected(self):
        config = SimulationConfig(
            tree=from_spec("1-3-5"), system=TreeQuorumProtocol(7)
        )
        with pytest.raises(ValueError, match="not both"):
            config.resolve()


class TestSimulate:
    def test_failure_free_run_all_succeed(self):
        result = simulate(
            SimulationConfig(
                tree=from_spec("1-3-5"),
                workload=WorkloadSpec(operations=200, read_fraction=0.5),
                seed=2,
            )
        )
        assert result.monitor.reads.failed == 0
        assert result.monitor.writes.failed == 0
        assert result.duration > 0
        assert result.events_processed > 0

    def test_deterministic_given_seed(self):
        config = SimulationConfig(
            tree=from_spec("1-3-5"),
            workload=WorkloadSpec(operations=100),
            seed=7,
        )
        a = simulate(config).summary()
        b = simulate(
            SimulationConfig(
                tree=from_spec("1-3-5"),
                workload=WorkloadSpec(operations=100),
                seed=7,
            )
        ).summary()
        assert_summaries_equal(a, b)

    def test_identical_seed_identical_monitor_output(self):
        """Full per-operation regression: same seed -> identical streams.

        Stronger than comparing summaries — every outcome field, including
        the exact quorums chosen and per-operation timings, must match.
        The child RNGs (network, coordinators, workload) are seeded with
        getrandbits(64) off the master seed, so the whole event history is
        a pure function of ``SimulationConfig.seed``.
        """

        def run():
            outcomes = []
            monitor = simulate(
                SimulationConfig(
                    tree=from_spec("1-3-5"),
                    workload=WorkloadSpec(
                        operations=150, read_fraction=0.5, keys=16,
                        arrival="poisson", rate=0.3,
                    ),
                    failures=BernoulliFailures(p=0.8, seed=11, resample_every=25.0),
                    timeout=6.0,
                    seed=11,
                ),
                on_outcome=outcomes.append,
            ).monitor
            return monitor, outcomes

        (a, outcomes_a), (b, outcomes_b) = run(), run()
        trace_a = [
            (o.op_type, o.key, o.success, o.quorum, o.version_quorum,
             o.attempts, o.started_at, o.finished_at, o.reason)
            for o in outcomes_a
        ]
        trace_b = [
            (o.op_type, o.key, o.success, o.quorum, o.version_quorum,
             o.attempts, o.started_at, o.finished_at, o.reason)
            for o in outcomes_b
        ]
        assert trace_a == trace_b
        assert_summaries_equal(a.summary(), b.summary())

    def test_different_seeds_differ(self):
        def run(seed):
            outcomes = []
            simulate(
                SimulationConfig(
                    tree=from_spec("1-3-5"),
                    workload=WorkloadSpec(operations=100),
                    seed=seed,
                ),
                on_outcome=outcomes.append,
            )
            return outcomes

        keys_a = [outcome.key for outcome in run(1)]
        keys_b = [outcome.key for outcome in run(2)]
        assert keys_a != keys_b

    def test_event_budget_guard(self):
        with pytest.raises(RuntimeError, match="exceeded"):
            simulate(
                SimulationConfig(
                    tree=from_spec("1-3-5"),
                    workload=WorkloadSpec(operations=1000),
                ),
                max_events=50,
            )

    def test_simulation_with_baseline_system(self):
        """The engine can run the BINARY baseline end to end too."""
        result = simulate(
            SimulationConfig(
                system=TreeQuorumProtocol(7),
                workload=WorkloadSpec(operations=100, read_fraction=0.5),
                seed=0,
            )
        )
        assert result.monitor.reads.failed == 0
        assert result.monitor.writes.failed == 0
        # every quorum is a root-to-leaf path of 3 replicas
        assert result.monitor.reads.mean_cost == pytest.approx(3.0)

    def test_lossy_network_still_completes_with_retries(self):
        result = simulate(
            SimulationConfig(
                tree=from_spec("1-3-5"),
                workload=WorkloadSpec(operations=150, read_fraction=0.5),
                drop_probability=0.05,
                timeout=6.0,
                max_attempts=10,
                seed=3,
            )
        )
        assert result.network_stats.dropped_loss > 0
        availability = result.monitor.reads.availability
        assert availability > 0.95

    def test_summary_contains_network_counters(self):
        result = simulate(
            SimulationConfig(
                tree=from_spec("1-3-5"),
                workload=WorkloadSpec(operations=10),
            )
        )
        summary = result.summary()
        assert summary["messages_sent"] > 0
        assert summary["duration"] == result.duration


class TestFailureIntegration:
    def test_bernoulli_failures_reduce_availability(self):
        result = simulate(
            SimulationConfig(
                tree=from_spec("1-3-5"),
                workload=WorkloadSpec(
                    operations=800, read_fraction=0.5, keys=32,
                    arrival="poisson", rate=0.2,
                ),
                failures=BernoulliFailures(p=0.6, seed=5, resample_every=50.0),
                max_attempts=1,
                timeout=8.0,
                seed=5,
            )
        )
        assert 0.0 < result.monitor.writes.availability < 1.0
        assert result.monitor.reads.availability > result.monitor.writes.availability

    def test_retries_mask_failures(self):
        no_retry = simulate(
            SimulationConfig(
                tree=from_spec("1-3-5"),
                workload=WorkloadSpec(operations=400, read_fraction=0.5, keys=16),
                failures=BernoulliFailures(p=0.75, seed=8, resample_every=30.0),
                max_attempts=1,
                timeout=6.0,
                seed=8,
            )
        )
        with_retry = simulate(
            SimulationConfig(
                tree=from_spec("1-3-5"),
                workload=WorkloadSpec(operations=400, read_fraction=0.5, keys=16),
                failures=BernoulliFailures(p=0.75, seed=8, resample_every=30.0),
                max_attempts=5,
                timeout=6.0,
                seed=8,
            )
        )
        assert (
            with_retry.monitor.writes.availability
            >= no_retry.monitor.writes.availability
        )
