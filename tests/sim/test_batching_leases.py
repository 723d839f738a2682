"""Unit and end-to-end tests for read leases.

Covers the lease cache in isolation, the coordinator's leased-read short
circuit (grant off read quorums and committed writes, invalidation at
exclusive-lock grant and on liveness-epoch movement), and the acceptance
requirement that the invariant checker stays green with leases on under
mass-crash and flapping chaos.
"""

import random

import pytest

from repro.core.builder import from_spec
from repro.core.protocol import ArbitraryProtocol
from repro.fault.scenarios import chaos_injector
from repro.sim.coordinator import QuorumCoordinator
from repro.sim.engine import SimulationConfig, simulate
from repro.sim.events import Scheduler
from repro.sim.leases import LeaseCache
from repro.sim.locks import LockManager
from repro.sim.network import Network
from repro.sim.site import Site
from repro.sim.workload import WorkloadSpec


class Rig:
    """Coordinator + sites assembly with optional leases."""

    def __init__(
        self,
        spec="1-3-5",
        max_attempts=3,
        timeout=8.0,
        seed=0,
        leases=False,
    ):
        self.tree = from_spec(spec)
        self.scheduler = Scheduler()
        self.network = Network(self.scheduler, random.Random(seed), latency=1.0)
        self.sites = [Site(sid, self.network) for sid in range(self.tree.n)]
        self.locks = LockManager(self.scheduler)
        self.leases = (
            LeaseCache(epoch=lambda: self.network.liveness_epoch)
            if leases
            else None
        )
        self.coordinator = QuorumCoordinator(
            sid=-1,
            network=self.network,
            system=ArbitraryProtocol(self.tree),
            locks=self.locks,
            detector=lambda sid: self.sites[sid].up,
            rng=random.Random(seed + 1),
            timeout=timeout,
            max_attempts=max_attempts,
            writer_id=self.tree.n,
            liveness_epoch=lambda: self.network.liveness_epoch,
            leases=self.leases,
        )
        self.outcomes = []

    def read(self, key):
        self.coordinator.read(key, self.outcomes.append)
        self.scheduler.run()
        return self.outcomes[-1]

    def write(self, key, value):
        self.coordinator.write(key, value, self.outcomes.append)
        self.scheduler.run()
        return self.outcomes[-1]


class TestLeaseCache:
    def _cache(self, epoch=0):
        state = {"epoch": epoch}
        cache = LeaseCache(epoch=lambda: state["epoch"])
        return cache, state

    def test_lookup_miss_then_grant_then_hit(self):
        cache, _ = self._cache()
        assert cache.lookup("k") is None
        assert cache.misses == 1 and cache.hits == 0
        cache.grant("k", "v", timestamp=None, quorum=frozenset({1, 2}))
        entry = cache.lookup("k")
        assert entry is not None and entry.value == "v"
        assert cache.hits == 1 and cache.grants == 1
        assert len(cache) == 1

    def test_invalidate_revokes_and_counts(self):
        cache, _ = self._cache()
        cache.grant("k", "v", timestamp=None, quorum=frozenset())
        cache.invalidate("k")
        assert cache.lookup("k") is None
        assert cache.invalidations == 1
        # Invalidating an absent key is a no-op, not a double count.
        cache.invalidate("k")
        assert cache.invalidations == 1

    def test_epoch_movement_drops_entries(self):
        cache, state = self._cache()
        cache.grant("k", "v", timestamp=None, quorum=frozenset())
        state["epoch"] += 1
        assert cache.lookup("k") is None
        assert cache.epoch_invalidations == 1
        assert len(cache) == 0
        # A re-grant under the new epoch is served again.
        cache.grant("k", "v2", timestamp=None, quorum=frozenset())
        assert cache.lookup("k").value == "v2"

    def test_hit_rate_and_summary(self):
        cache, _ = self._cache()
        assert cache.hit_rate == 0.0
        cache.grant("k", "v", timestamp=None, quorum=frozenset())
        cache.lookup("k")
        cache.lookup("other")
        assert cache.hit_rate == 0.5
        summary = cache.summary()
        assert summary == {
            "entries": 1.0,
            "hits": 1.0,
            "misses": 1.0,
            "grants": 1.0,
            "invalidations": 0.0,
            "epoch_invalidations": 0.0,
            "flushes": 0.0,
            "hit_rate": 0.5,
        }


class TestLeasedReads:
    def test_second_read_is_served_from_the_lease(self):
        rig = Rig(leases=True)
        first = rig.read("k")
        assert first.success and not first.leased
        sent_before = rig.network.stats.sent
        second = rig.read("k")
        assert second.leased and second.success
        assert second.value == first.value
        assert second.timestamp == first.timestamp
        assert second.quorum == frozenset() and second.attempts == 0
        # Nobody was contacted: the leased serve is message-free.
        assert rig.network.stats.sent == sent_before

    def test_committed_write_grants_a_write_through_lease(self):
        rig = Rig(leases=True)
        rig.write("k", "v1")
        outcome = rig.read("k")
        assert outcome.leased and outcome.value == "v1"

    def test_write_invalidates_the_lease(self):
        rig = Rig(leases=True)
        rig.read("k")
        assert rig.leases.grants >= 1
        rig.write("k", "fresh")
        assert rig.leases.invalidations >= 1
        outcome = rig.read("k")
        # The commit re-granted (write-through), and the served value is
        # the freshly committed one — never the pre-write lease.
        assert outcome.value == "fresh"

    def test_liveness_epoch_bump_revokes_leases(self):
        rig = Rig(leases=True)
        rig.read("k")
        rig.network.bump_liveness_epoch()
        outcome = rig.read("k")
        assert not outcome.leased
        assert len(outcome.quorum) > 0
        assert rig.leases.epoch_invalidations == 1

    def test_site_crash_revokes_leases(self):
        rig = Rig(leases=True)
        rig.read("k")
        rig.sites[0].crash()
        outcome = rig.read("k")
        assert not outcome.leased
        assert rig.leases.epoch_invalidations == 1

    def test_queued_read_looks_its_lease_up_twice(self):
        """A write holding the lock re-grants the lease (write-through)
        while a read waits for its shared lock: that read is one miss (at
        submission) and one hit (at shared-lock grant)."""
        rig = Rig(leases=True)
        rig.coordinator.write("k", "v", rig.outcomes.append)
        rig.scheduler.run(until=3.0)  # in flight, lock held
        assert rig.locks.holders("k") and not rig.outcomes
        rig.coordinator.read("k", rig.outcomes.append)
        assert (rig.leases.misses, rig.leases.hits) == (1, 0)
        rig.scheduler.run()
        write, read = rig.outcomes
        assert write.success and read.leased and read.value == "v"
        assert read.quorum == frozenset() and read.attempts == 0
        assert (rig.leases.misses, rig.leases.hits) == (1, 1)


def _chaos_config(scenario: str, seed: int) -> SimulationConfig:
    return SimulationConfig(
        tree=from_spec("1-3-5"),
        workload=WorkloadSpec(
            operations=150,
            read_fraction=0.9,
            keys=16,
            arrival="poisson",
            rate=0.3,
            zipf_s=1.1,
        ),
        failures=chaos_injector(scenario, 8, seed=seed, horizon=500.0),
        timeout=8.0,
        max_attempts=3,
        check_invariants=True,
        leases=True,
        seed=seed,
    )


@pytest.mark.parametrize(
    "scenario,seed", [("mass-crash", 21), ("flapping", 9)]
)
def test_invariants_hold_leased_under_chaos(scenario, seed):
    """Acceptance: no invariant violations with leases on."""
    result = simulate(_chaos_config(scenario, seed))
    assert result.invariants is not None
    assert result.invariants.ok, result.invariants.violations
    # The lease cache actually participated (hits) and was revoked by the
    # chaos scenario's liveness churn (epoch invalidations).
    assert result.leases is not None
    assert result.leases.hits > 0
    assert result.leases.epoch_invalidations > 0
