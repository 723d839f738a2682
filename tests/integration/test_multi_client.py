"""Integration: multiple concurrent clients share locks and stay consistent."""

import pytest

from repro.core.builder import from_spec, recommended_tree
from repro.sim import BernoulliFailures, SimulationConfig, WorkloadSpec, simulate
from tests.integration.test_consistency import (
    audit_one_copy_equivalence,
    simulate_observed,
)


class TestMultiClient:
    def test_failure_free_concurrency(self):
        result, outcomes = simulate_observed(
            SimulationConfig(
                tree=from_spec("1-3-5"),
                workload=WorkloadSpec(
                    operations=2000, read_fraction=0.5, keys=4,
                    arrival="poisson", rate=1.0,
                ),
                clients=4,
                seed=31,
            )
        )
        assert result.monitor.reads.failed == 0
        assert result.monitor.writes.failed == 0
        assert audit_one_copy_equivalence(outcomes) == 0

    def test_contention_on_single_key(self):
        """Every operation hits one key: the lock manager must serialise."""
        result, outcomes = simulate_observed(
            SimulationConfig(
                tree=from_spec("1-3-5"),
                workload=WorkloadSpec(
                    operations=600, read_fraction=0.4, keys=1,
                    arrival="poisson", rate=2.0,
                ),
                clients=8,
                seed=32,
            )
        )
        assert result.monitor.writes.failed == 0
        assert audit_one_copy_equivalence(outcomes) == 0
        versions = [
            outcome.timestamp.version
            for outcome in outcomes
            if outcome.op_type == "write" and outcome.success
        ]
        # strictly increasing versions across DIFFERENT writers
        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)

    def test_multi_client_with_failures(self):
        _, outcomes = simulate_observed(
            SimulationConfig(
                tree=recommended_tree(30),
                workload=WorkloadSpec(
                    operations=2000, read_fraction=0.5, keys=8,
                    arrival="poisson", rate=0.5,
                ),
                failures=BernoulliFailures(p=0.8, seed=33, resample_every=60.0),
                clients=3,
                max_attempts=3,
                timeout=8.0,
                seed=33,
            )
        )
        assert audit_one_copy_equivalence(outcomes) == 0

    def test_version_floor_shared_across_clients(self):
        """Writer A's version must be visible to writer B even when B's
        version quorum cannot reach A's write level."""
        _, outcomes = simulate_observed(
            SimulationConfig(
                tree=from_spec("1-3-5"),
                workload=WorkloadSpec(
                    operations=1000, read_fraction=0.0, keys=2,
                    arrival="poisson", rate=0.5,
                ),
                failures=BernoulliFailures(p=0.7, seed=34, resample_every=50.0),
                clients=4,
                max_attempts=2,
                timeout=8.0,
                seed=34,
            )
        )
        per_key_versions: dict = {}
        for outcome in outcomes:
            if not outcome.success:
                continue
            versions = per_key_versions.setdefault(outcome.key, [])
            versions.append(outcome.timestamp.version)
        for versions in per_key_versions.values():
            assert versions == sorted(versions)
            assert len(set(versions)) == len(versions)

    def test_clients_validation(self):
        with pytest.raises(ValueError, match="at least one client"):
            simulate(
                SimulationConfig(
                    tree=from_spec("1-3-5"),
                    workload=WorkloadSpec(operations=1),
                    clients=0,
                )
            )

    def test_deterministic_with_clients(self):
        def run():
            return simulate(
                SimulationConfig(
                    tree=from_spec("1-3-5"),
                    workload=WorkloadSpec(
                        operations=300, arrival="poisson", rate=1.0
                    ),
                    clients=3,
                    seed=35,
                )
            ).summary()

        assert run() == run()
