"""Integration: heterogeneous per-replica availability, formulas vs simulator."""

import pytest

from repro.core import metrics
from repro.core.builder import from_spec
from repro.sim import BernoulliFailures, SimulationConfig, WorkloadSpec, simulate


class TestHeterogeneousFleet:
    def test_measured_availability_matches_generalised_formulas(self):
        tree = from_spec("1-3-5")
        # a flaky level-1 replica and one rock-solid replica per level
        p_map = {0: 0.55, 1: 0.95, 2: 0.75, 3: 0.95, 4: 0.6, 5: 0.7, 6: 0.8, 7: 0.9}
        result = simulate(
            SimulationConfig(
                tree=tree,
                workload=WorkloadSpec(
                    operations=8000, read_fraction=0.5, keys=64,
                    arrival="poisson", rate=0.25,
                ),
                failures=BernoulliFailures(p=p_map, seed=17, resample_every=40.0),
                max_attempts=1,
                timeout=8.0,
                seed=17,
            )
        )
        summary = result.summary()
        assert summary["read_availability"] == pytest.approx(
            metrics.read_availability(tree, p_map), abs=0.035
        )
        assert summary["write_availability"] == pytest.approx(
            metrics.write_availability(tree, p_map), abs=0.05
        )

    def test_perfect_level_guarantees_writes(self):
        tree = from_spec("1-3-5")
        p_map = {sid: 1.0 for sid in range(3)}        # level 1 perfect
        p_map.update({sid: 0.5 for sid in range(3, 8)})  # level 2 flaky
        result = simulate(
            SimulationConfig(
                tree=tree,
                workload=WorkloadSpec(
                    operations=2000, read_fraction=0.0, keys=16,
                    arrival="poisson", rate=0.2,
                ),
                failures=BernoulliFailures(p=p_map, seed=3, resample_every=50.0),
                max_attempts=1,
                timeout=8.0,
                seed=3,
            )
        )
        # level 1 is always a complete write quorum
        assert result.monitor.writes.availability > 0.97

    def test_consistency_holds_with_heterogeneous_failures(self):
        from tests.integration.test_consistency import (
            audit_one_copy_equivalence,
            simulate_observed,
        )

        tree = from_spec("1-3-5")
        p_map = {sid: 0.6 + 0.05 * sid for sid in range(8)}
        _, outcomes = simulate_observed(
            SimulationConfig(
                tree=tree,
                workload=WorkloadSpec(operations=1500, read_fraction=0.5, keys=6),
                failures=BernoulliFailures(p=p_map, seed=5, resample_every=45.0),
                max_attempts=3,
                timeout=8.0,
                seed=5,
            )
        )
        assert audit_one_copy_equivalence(outcomes) == 0
