"""End-to-end tests of the sharded keyspace simulation.

Covers the tentpole contract: per-shard replica groups behind a router
and load balancer, heterogeneous quorum systems, per-shard measurement
that folds cleanly, and bit-identical results between a serial repeat
loop and a ``--jobs N`` process-pool fan-out.
"""

import random
from dataclasses import fields
from functools import partial

import pytest

from repro.core import from_spec
from repro.fault.retry import ExponentialBackoff, RetryPolicySpec
from repro.protocols.zoo import quorum_system
from repro.runner import merge_monitors, parallel_runs
from repro.shard import (
    HashRouter,
    ShardedConfig,
    build_sharded_simulation,
    simulate_sharded,
)
from repro.sim import SimulationConfig, WorkloadSpec
from repro.sim.failures import BernoulliFailures


def _spec(**overrides):
    base = dict(operations=300, keys=512, arrival="poisson", rate=1.0)
    base.update(overrides)
    return WorkloadSpec(**base)


def _group(workload=None, **settings):
    """The replica group every shard runs (``_spec()``'s workload by
    default)."""
    return SimulationConfig(workload=workload or _spec(), **settings)


class TestShardedConfig:
    def test_system_broadcast(self):
        config = ShardedConfig(shards=3, systems=(("tree", "1-3"),))
        assert len(config.resolve_systems()) == 3

    def test_mismatched_system_count_rejected(self):
        with pytest.raises(ValueError):
            ShardedConfig(shards=3, systems=(("tree", "1-3"),) * 2)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardedConfig(shards=0)

    def test_no_field_is_declared_twice(self):
        """A shard is a replica group: what the group declares,
        ``ShardedConfig`` holds once, in ``group``."""
        sharded = [field.name for field in fields(ShardedConfig)]
        assert sharded == [
            "group", "shards", "systems", "router", "router_seed",
            "balancer", "p", "regions",
        ]
        assert set(sharded) & {
            field.name for field in fields(SimulationConfig)
        } == set()

    @pytest.mark.parametrize("name, value, instead", [
        ("tree", from_spec("1-3"), "ShardedConfig.systems"),
        ("system", quorum_system("majority", 3), "ShardedConfig.systems"),
        ("failures", BernoulliFailures(0.9), "ShardedConfig.p"),
        ("trace", True, "an unsharded SimulationConfig"),
        ("check_invariants", True, "an unsharded SimulationConfig"),
        ("reshape_at", 5.0, "an unsharded SimulationConfig"),
        ("reshape_spec", "1-2", "an unsharded SimulationConfig"),
    ])
    def test_a_group_field_the_build_does_not_honour_is_refused(
        self, name, value, instead
    ):
        with pytest.raises(ValueError, match=f"group {name}; use {instead}"):
            ShardedConfig(group=SimulationConfig(**{name: value}))

    def test_every_shard_runs_the_group(self):
        """Each group field the build honours, set away from its
        default, reaches every shard."""
        group = SimulationConfig(
            workload=_spec(operations=50), seed=17, latency=2.0,
            drop_probability=0.05, duplicate_probability=0.02, timeout=9.0,
            max_attempts=5, clients=3, service_time=0.25,
            retry_policy=RetryPolicySpec(
                kind="exponential", base=2.0, cap=30.0
            ),
            detector=True, probe_interval=12.0, suspect_threshold=2,
            leases=True,
        )
        _scheduler, workload, store = build_sharded_simulation(
            ShardedConfig(group=group, shards=3)
        )
        assert workload.spec is group.workload
        master = random.Random(17)
        assert len(store.groups) == 3
        for shard in store.groups:
            network_seed = master.getrandbits(64)
            master.getrandbits(64)  # coordinator seed
            master.getrandbits(64)  # failure seed
            network = shard.network
            assert network._rng.getstate() == (
                random.Random(network_seed).getstate()
            )
            assert network._drop_probability == 0.05
            assert network._duplicate_probability == 0.02
            assert network._fixed_latency == 2.0
            assert all(site._service_time == 0.25 for site in shard.sites)
            assert len(shard.coordinators) == 3
            assert shard.suspects._probe_interval == 12.0
            assert shard.suspects._threshold == 2
            assert shard.leases is not None
            for coordinator in shard.coordinators:
                assert coordinator._timeout == 9.0
                assert coordinator._max_attempts == 5
                assert coordinator.leases is shard.leases
                assert coordinator.suspects is shard.suspects
                policy = coordinator._retry_policy
                assert isinstance(policy, ExponentialBackoff)
                assert (policy.base, policy.cap) == (2.0, 30.0)


class TestShardedSimulation:
    def test_all_operations_complete_and_route_consistently(self):
        config = ShardedConfig(
            group=_group(_spec(zipf_s=1.0), seed=11), shards=4
        )
        result = simulate_sharded(config)
        monitor = result.monitor
        assert monitor.total_operations == 300
        # Monitor attribution matches the balancer's dispatch counters:
        # every operation landed on the shard its key routed to.
        per_shard = [m.total_operations for m in monitor.shards]
        assert per_shard == result.store.balancer.dispatched
        assert sum(per_shard) == 300

    def test_routing_respects_router(self):
        scheduler, workload, store = build_sharded_simulation(
            ShardedConfig(group=_group(seed=2), shards=4)
        )
        assert isinstance(store.router, HashRouter)
        workload.start()
        while workload.completed < 300:
            assert scheduler.step(), "stalled"
        # Hash routing over uniform keys spreads load: no empty shard.
        assert all(count > 0 for count in store.balancer.dispatched)

    def test_deterministic_under_same_seed(self):
        config = dict(
            group=_group(_spec(zipf_s=0.8), seed=5), shards=4, p=0.9
        )
        first = simulate_sharded(ShardedConfig(**config))
        second = simulate_sharded(ShardedConfig(**config))
        assert first.summary() == second.summary()
        assert first.monitor.per_shard_summaries() == (
            second.monitor.per_shard_summaries()
        )

    def test_seed_changes_results(self):
        first = simulate_sharded(
            ShardedConfig(group=_group(seed=1), shards=2, p=0.85)
        )
        second = simulate_sharded(
            ShardedConfig(group=_group(seed=2), shards=2, p=0.85)
        )
        assert first.summary() != second.summary()

    def test_heterogeneous_systems_per_shard(self):
        config = ShardedConfig(
            group=_group(_spec(operations=200), seed=3),
            shards=2,
            systems=(("tree", "1-3-5"), ("protocol", "majority", 5)),
            router="range",
        )
        result = simulate_sharded(config)
        assert result.monitor.total_operations == 200
        systems = [group.system for group in result.store.groups]
        assert systems[0].name != systems[1].name

    def test_ops_per_sec_reported(self):
        result = simulate_sharded(
            ShardedConfig(group=_group(seed=9), shards=2)
        )
        summary = result.summary()
        assert summary["ops_per_sec"] > 0
        assert summary["shards"] == 2

    def test_regional_latency_slows_quorums(self):
        group = _group(_spec(operations=150), seed=4)
        fast = simulate_sharded(ShardedConfig(group=group, shards=2))
        slow = simulate_sharded(
            ShardedConfig(group=group, shards=2, regions=2)
        )
        assert (
            slow.summary()["write_latency_mean"]
            > fast.summary()["write_latency_mean"]
        )

    def test_least_outstanding_balancer_runs(self):
        result = simulate_sharded(ShardedConfig(
            group=_group(
                _spec(operations=200, rate=4.0), clients=3,
                service_time=0.5, seed=6,
            ),
            shards=2, balancer="least-outstanding",
        ))
        assert result.monitor.total_operations == 200
        # All slots were released on completion.
        for shard in range(2):
            assert result.store.balancer.outstanding(shard) == (0, 0, 0)


def _sharded_repeat(operations: int, seed: int):
    """One repeat, built whole at its seed (module-level, so it pickles)."""
    return simulate_sharded(ShardedConfig(
        group=SimulationConfig(
            workload=WorkloadSpec(
                operations=operations, keys=256, zipf_s=1.0,
                arrival="poisson", rate=0.25,
            ),
            timeout=8.0, seed=seed,
        ),
        shards=4, p=0.9,
    )).monitor


class TestParallelEquivalence:
    def test_serial_and_jobs_fanout_bit_identical(self):
        run = partial(_sharded_repeat, 200)
        serial = merge_monitors(parallel_runs(run, 4, 13))
        fanned = merge_monitors(parallel_runs(run, 4, 13, jobs=2))
        assert serial.summary() == fanned.summary()
        assert serial.per_shard_summaries() == fanned.per_shard_summaries()

    def test_build_sharded_config_round_trip(self):
        """A config is plain data: it pickles and rebuilds its systems
        from their references on the far side."""
        import pickle

        config = ShardedConfig(shards=2, systems=(("protocol", "grid", 16),))
        received = pickle.loads(pickle.dumps(config))
        assert received == config
        systems = received.resolve_systems()
        assert len(systems) == 2
        assert all(n == 16 for _system, n in systems)
