"""Integration: one-copy equivalence under failures, loss and partitions.

The correctness contract of a replica control protocol: every successful
read returns the value of the latest successful write of that key, no
matter which replicas crashed, recovered, or were partitioned away in
between.  We drive the full stack through hostile schedules and audit every
outcome.
"""

import pytest

from repro.core.builder import from_spec, mostly_write, recommended_tree
from repro.sim import BernoulliFailures, SimulationConfig, WorkloadSpec, simulate
from repro.sim.failures import CompositeFailures, CrashRepairProcess, PartitionSchedule
from repro.sim.network import PartitionSpec


def simulate_observed(config: SimulationConfig):
    """``simulate(config)`` and every outcome it reported, in completion
    order (the result keeps none)."""
    outcomes: list = []
    return simulate(config, on_outcome=outcomes.append), outcomes


def audit_one_copy_equivalence(outcomes) -> int:
    """Number of reads that returned something other than the latest write.

    Operations are audited in completion order.  With a single coordinator
    and per-key exclusive write locks, completion order is a valid
    serialisation order, so a successful read must return the latest
    previously-completed successful write (or None).
    """
    latest: dict = {}
    violations = 0
    for outcome in outcomes:
        if not outcome.success:
            continue
        if outcome.op_type == "write":
            latest[outcome.key] = outcome.value
        else:
            expected = latest.get(outcome.key)
            if expected is not None and outcome.value != expected:
                violations += 1
    return violations


class TestOneCopyEquivalence:
    def test_failure_free(self):
        _, outcomes = simulate_observed(
            SimulationConfig(
                tree=from_spec("1-3-5"),
                workload=WorkloadSpec(operations=2000, read_fraction=0.6, keys=8),
                seed=1,
            )
        )
        assert audit_one_copy_equivalence(outcomes) == 0

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_bernoulli_failures(self, seed):
        _, outcomes = simulate_observed(
            SimulationConfig(
                tree=from_spec("1-3-5"),
                workload=WorkloadSpec(operations=2000, read_fraction=0.5, keys=6),
                failures=BernoulliFailures(p=0.75, seed=seed, resample_every=45.0),
                max_attempts=3,
                timeout=8.0,
                seed=seed,
            )
        )
        assert audit_one_copy_equivalence(outcomes) == 0

    def test_crash_repair_churn(self):
        result, outcomes = simulate_observed(
            SimulationConfig(
                tree=recommended_tree(30),
                workload=WorkloadSpec(operations=2500, read_fraction=0.5, keys=10),
                failures=CrashRepairProcess(
                    mean_uptime=120.0, mean_downtime=40.0, seed=5,
                ),
                max_attempts=3,
                timeout=8.0,
                seed=5,
            )
        )
        # churn must actually have happened
        assert sum(site.stats.crashes for site in result.sites) > 10
        assert audit_one_copy_equivalence(outcomes) == 0

    def test_partition_window(self):
        tree = from_spec("1-3-5")
        partition = PartitionSpec.split(
            set(tree.replica_ids_at(1)),
            set(tree.replica_ids_at(2)) | {-1},
        )
        result, outcomes = simulate_observed(
            SimulationConfig(
                tree=tree,
                workload=WorkloadSpec(operations=1200, read_fraction=0.5, keys=6),
                failures=PartitionSchedule(partition, start=300.0, end=900.0),
                max_attempts=1,
                timeout=8.0,
                seed=6,
            )
        )
        assert result.network_stats.dropped_partition >= 0
        assert audit_one_copy_equivalence(outcomes) == 0

    def test_lossy_network_with_churn(self):
        _, outcomes = simulate_observed(
            SimulationConfig(
                tree=mostly_write(9),
                workload=WorkloadSpec(operations=1500, read_fraction=0.4, keys=6),
                failures=CompositeFailures([
                    CrashRepairProcess(
                        mean_uptime=200.0, mean_downtime=30.0, seed=7,
                    ),
                ]),
                drop_probability=0.02,
                max_attempts=5,
                timeout=6.0,
                seed=7,
            )
        )
        assert audit_one_copy_equivalence(outcomes) == 0

    def test_versions_strictly_increase_per_key(self):
        _, outcomes = simulate_observed(
            SimulationConfig(
                tree=from_spec("1-3-5"),
                workload=WorkloadSpec(operations=2000, read_fraction=0.3, keys=4),
                failures=BernoulliFailures(p=0.8, seed=9, resample_every=60.0),
                max_attempts=3,
                timeout=8.0,
                seed=9,
            )
        )
        last_version: dict = {}
        for outcome in outcomes:
            if outcome.op_type != "write" or not outcome.success:
                continue
            version = outcome.timestamp.version
            assert version > last_version.get(outcome.key, 0)
            last_version[outcome.key] = version

    def test_reads_never_go_backwards(self):
        """Monotone reads per key (a consequence of quorum intersection)."""
        _, outcomes = simulate_observed(
            SimulationConfig(
                tree=from_spec("1-3-5"),
                workload=WorkloadSpec(operations=2000, read_fraction=0.7, keys=4),
                failures=BernoulliFailures(p=0.8, seed=10, resample_every=60.0),
                max_attempts=3,
                timeout=8.0,
                seed=10,
            )
        )
        highest_read: dict = {}
        for outcome in outcomes:
            if outcome.op_type != "read" or not outcome.success:
                continue
            if outcome.timestamp is None:
                continue
            version = outcome.timestamp.version
            assert version >= highest_read.get(outcome.key, 0)
            highest_read[outcome.key] = version
