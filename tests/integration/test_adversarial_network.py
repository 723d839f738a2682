"""Integration: duplication, random latencies and loss, all at once.

The protocol's handlers must be idempotent (duplicated commits re-ack
without re-applying; timestamp guards reject replays) and its completion
rule (a write holds its lock until every live quorum member acked the
commit) must keep reads fresh even when message latencies are random —
these tests drive all of it simultaneously and audit consistency.
"""

import pytest

from repro.core.builder import from_spec, recommended_tree
from repro.sim import BernoulliFailures, SimulationConfig, WorkloadSpec, simulate
from tests.integration.test_consistency import (
    audit_one_copy_equivalence,
    simulate_observed,
)


class TestDuplication:
    def test_duplicates_are_harmless(self):
        result, outcomes = simulate_observed(
            SimulationConfig(
                tree=from_spec("1-3-5"),
                workload=WorkloadSpec(operations=1500, read_fraction=0.5, keys=8),
                duplicate_probability=0.2,
                seed=41,
            )
        )
        assert result.network_stats.duplicated > 100
        assert result.monitor.reads.failed == 0
        assert result.monitor.writes.failed == 0
        assert audit_one_copy_equivalence(outcomes) == 0

    def test_no_double_applies(self):
        result, outcomes = simulate_observed(
            SimulationConfig(
                tree=from_spec("1-3-5"),
                workload=WorkloadSpec(operations=600, read_fraction=0.0, keys=4),
                duplicate_probability=0.3,
                seed=42,
            )
        )
        commits = sum(site.stats.commits for site in result.sites)
        # each successful write commits at exactly its quorum members once
        expected = sum(
            len(outcome.quorum)
            for outcome in outcomes
            if outcome.success
        )
        assert commits == expected


class TestRandomLatency:
    @pytest.mark.parametrize(
        "latency",
        # A latency model is any callable drawing one delay from the rng.
        [lambda rng: rng.uniform(0.5, 3.0),
         lambda rng: rng.expovariate(1.0 / 1.5)],
        ids=["uniform", "exponential"],
    )
    def test_consistency_with_random_latency(self, latency):
        result, outcomes = simulate_observed(
            SimulationConfig(
                tree=from_spec("1-3-5"),
                workload=WorkloadSpec(
                    operations=1500, read_fraction=0.6, keys=6,
                    arrival="poisson", rate=0.5,
                ),
                latency=latency,
                clients=3,
                timeout=30.0,
                seed=43,
            )
        )
        assert result.monitor.reads.failed == 0
        assert result.monitor.writes.failed == 0
        assert audit_one_copy_equivalence(outcomes) == 0


class TestEverythingAtOnce:
    def test_chaos_run(self):
        result, outcomes = simulate_observed(
            SimulationConfig(
                tree=recommended_tree(30),
                workload=WorkloadSpec(
                    operations=2500, read_fraction=0.5, keys=8,
                    arrival="poisson", rate=0.4,
                ),
                latency=lambda rng: rng.uniform(0.5, 2.0),
                drop_probability=0.03,
                duplicate_probability=0.05,
                failures=BernoulliFailures(p=0.85, seed=44, resample_every=80.0),
                clients=2,
                max_attempts=5,
                timeout=25.0,
                seed=44,
            )
        )
        assert audit_one_copy_equivalence(outcomes) == 0
        # the run actually exercised everything
        assert result.network_stats.dropped_loss > 0
        assert result.network_stats.duplicated > 0
        crashed = sum(site.stats.crashes for site in result.sites)
        assert crashed > 0
