"""Unit and end-to-end tests for coordinator batching and read leases.

Covers the lease cache in isolation, the coordinator's leased-read short
circuit (grant off read quorums and committed writes, invalidation at
exclusive-lock grant and on liveness-epoch movement), window batching
(same-key reads coalesce onto one quorum read, writes stay ordinary writes
in submission order), and the acceptance requirement that the invariant
checker stays green with both features on under mass-crash and flapping
chaos.
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
    """Coordinator + sites assembly with optional batching and leases."""

    def __init__(
        self,
        spec="1-3-5",
        max_attempts=3,
        timeout=8.0,
        seed=0,
        batch_window=0.0,
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
            batch_window=batch_window,
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


class TestBatching:
    def test_same_key_reads_coalesce_to_one_quorum_read(self):
        baseline = Rig()
        baseline.read("k")
        single_read_cost = baseline.network.stats.sent

        rig = Rig(batch_window=2.0)
        for _ in range(3):
            rig.coordinator.read("k", rig.outcomes.append)
        rig.scheduler.run()
        assert len(rig.outcomes) == 3
        assert all(o.success for o in rig.outcomes)
        # One quorum round served all three waiters.
        assert rig.network.stats.sent == single_read_cost
        # Every waiter sees the same quorum result.
        assert len({o.timestamp for o in rig.outcomes}) == 1

    def test_fanned_out_outcomes_keep_their_own_submission_times(self):
        rig = Rig(batch_window=2.0)
        rig.coordinator.read("k", rig.outcomes.append)
        rig.scheduler.schedule(
            1.0, lambda: rig.coordinator.read("k", rig.outcomes.append)
        )
        rig.scheduler.run()
        starts = sorted(o.started_at for o in rig.outcomes)
        assert starts == [0.0, 1.0]
        assert len({o.finished_at for o in rig.outcomes}) == 1

    def test_batched_writes_are_ordinary_writes_in_order(self):
        # The 1-1-1 tree forces every quorum size (one read quorum, all
        # write quorums single-replica), so message counts are exact
        # regardless of which quorum the RNG picks.
        baseline = Rig(spec="1-1-1")
        baseline.write("k", "a")
        baseline.write("k", "b")
        serial_cost = baseline.network.stats.sent

        rig = Rig(spec="1-1-1", batch_window=2.0)
        rig.coordinator.write("k", "a", rig.outcomes.append)
        rig.coordinator.write("k", "b", rig.outcomes.append)
        rig.scheduler.run()
        assert all(o.success for o in rig.outcomes)
        assert [o.value for o in rig.outcomes] == ["a", "b"]
        versions = [o.timestamp.version for o in rig.outcomes]
        assert versions == [1, 2]
        # Batching adds no write path of its own: the successor finds the
        # floor its predecessor's commit advanced and pays what the second
        # of two serial writes pays, message for message.
        assert rig.network.stats.sent == serial_cost
        assert rig.read("k").value == "b"

    def test_distinct_keys_issue_independently(self):
        rig = Rig(batch_window=2.0)
        rig.coordinator.write("a", 1, rig.outcomes.append)
        rig.coordinator.write("b", 2, rig.outcomes.append)
        rig.coordinator.read("a", rig.outcomes.append)
        rig.scheduler.run()
        assert len(rig.outcomes) == 3
        assert all(o.success for o in rig.outcomes)
        assert rig.read("a").value == 1
        assert rig.read("b").value == 2

    def test_zero_window_issues_immediately(self):
        rig = Rig(batch_window=0.0)
        assert rig.coordinator.batch_window == 0.0
        outcome = rig.read("k")
        assert outcome.success and outcome.started_at == 0.0

    def test_negative_window_rejected(self):
        rig = Rig()
        with pytest.raises(ValueError, match="window"):
            QuorumCoordinator(
                sid=-2,
                network=rig.network,
                system=ArbitraryProtocol(rig.tree),
                locks=rig.locks,
                detector=lambda sid: True,
                rng=random.Random(0),
                batch_window=-1.0,
            )

    def test_batched_reads_can_be_served_leased(self):
        rig = Rig(batch_window=2.0, leases=True)
        rig.read("k")  # grants the lease
        sent_before = rig.network.stats.sent
        for _ in range(3):
            rig.coordinator.read("k", rig.outcomes.append)
        rig.scheduler.run()
        group = rig.outcomes[-3:]
        assert all(o.leased for o in group)
        assert rig.network.stats.sent == sent_before

    def test_batched_read_looks_its_lease_up_twice(self):
        """A write queued ahead re-grants the lease (write-through) while
        the batched read waits for its lock: that read is one miss (at
        submission) and one hit (at shared-lock grant) — the flush in
        between does not look, so one read is never counted three times."""
        rig = Rig(batch_window=2.0, leases=True)
        rig.coordinator.write("k", "v", rig.outcomes.append)
        rig.scheduler.run(until=3.0)  # flushed, in flight, lock held
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
        batch_window=2.0,
        leases=True,
        seed=seed,
    )


@pytest.mark.parametrize(
    "scenario,seed", [("mass-crash", 21), ("flapping", 9)]
)
def test_invariants_hold_batched_and_leased_under_chaos(scenario, seed):
    """Acceptance: no invariant violations with both features on."""
    result = simulate(_chaos_config(scenario, seed))
    assert result.invariants is not None
    assert result.invariants.ok, result.invariants.violations
    # The lease cache actually participated (hits) and was revoked by the
    # chaos scenario's liveness churn (epoch invalidations).
    assert result.leases is not None
    assert result.leases.hits > 0
    assert result.leases.epoch_invalidations > 0
