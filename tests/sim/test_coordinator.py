"""Unit tests for the quorum coordinator (reads, 2PC writes, retries)."""

import random

import pytest

from repro.core.builder import from_spec
from repro.core.protocol import ArbitraryProtocol
from repro.sim.coordinator import (
    FailureReason,
    QuorumCoordinator,
)
from repro.sim.events import Scheduler
from repro.sim.locks import LockManager
from repro.sim.network import Network
from repro.sim.site import Site


class Rig:
    """A full coordinator + sites assembly with controllable liveness."""

    def __init__(self, spec="1-3-5", max_attempts=3, timeout=8.0, seed=0):
        self.tree = from_spec(spec)
        self.scheduler = Scheduler()
        self.network = Network(self.scheduler, random.Random(seed), latency=1.0)
        self.sites = [Site(sid, self.network) for sid in range(self.tree.n)]
        self.locks = LockManager(self.scheduler)
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


class TestValidation:
    def test_non_negative_sid_rejected(self):
        rig = Rig()
        with pytest.raises(ValueError, match="negative"):
            QuorumCoordinator(
                sid=3, network=rig.network, system=ArbitraryProtocol(rig.tree),
                locks=rig.locks, detector=lambda sid: True,
                rng=random.Random(0),
            )

    def test_positive_timeout_required(self):
        rig = Rig()
        with pytest.raises(ValueError, match="timeout"):
            QuorumCoordinator(
                sid=-2, network=rig.network, system=ArbitraryProtocol(rig.tree),
                locks=rig.locks, detector=lambda sid: True,
                rng=random.Random(0), timeout=0.0,
            )

    def test_at_least_one_attempt(self):
        rig = Rig()
        with pytest.raises(ValueError, match="attempt"):
            QuorumCoordinator(
                sid=-2, network=rig.network, system=ArbitraryProtocol(rig.tree),
                locks=rig.locks, detector=lambda sid: True,
                rng=random.Random(0), max_attempts=0,
            )


class TestReads:
    def test_read_of_unwritten_key(self):
        rig = Rig()
        outcome = rig.read("missing")
        assert outcome.success
        assert outcome.value is None
        assert len(outcome.quorum) == 2

    def test_read_returns_latest_write(self):
        rig = Rig()
        rig.write("k", "v1")
        rig.write("k", "v2")
        outcome = rig.read("k")
        assert outcome.success and outcome.value == "v2"
        assert outcome.timestamp.version == 2

    def test_read_fails_when_level_dead(self):
        rig = Rig(max_attempts=1)
        for sid in (0, 1, 2):
            rig.sites[sid].crash()
        outcome = rig.read("k")
        assert not outcome.success
        assert outcome.reason is FailureReason.UNAVAILABLE

    def test_read_retries_after_mid_flight_crash(self):
        rig = Rig(max_attempts=3)
        rig.write("k", "v")
        # crash a replica after selection by hooking the detector window:
        # crash at the instant the read starts (messages in flight die)
        victim = rig.sites[0]
        rig.coordinator.read("k", rig.outcomes.append)
        victim.crash()
        rig.scheduler.run()
        outcome = rig.outcomes[-1]
        assert outcome.success
        assert outcome.attempts >= 1

    def test_read_latency_is_round_trip(self):
        rig = Rig()
        outcome = rig.read("k")
        assert outcome.latency == pytest.approx(2.0)  # 1 out + 1 back


class TestWrites:
    def test_write_updates_quorum_members(self):
        rig = Rig()
        outcome = rig.write("k", "v")
        assert outcome.success
        level = outcome.quorum
        for sid in level:
            assert rig.sites[sid].store.read("k").value == "v"

    def test_write_version_increments(self):
        rig = Rig()
        first = rig.write("k", "a")
        second = rig.write("k", "b")
        assert second.timestamp.version == first.timestamp.version + 1

    def test_write_uses_single_level(self):
        rig = Rig()
        outcome = rig.write("k", "v")
        levels = [set(rig.tree.replica_ids_at(k)) for k in rig.tree.physical_levels]
        assert any(outcome.quorum == frozenset(level) for level in levels)

    def test_write_survives_level_crash(self):
        rig = Rig()
        for sid in (0, 1, 2):
            rig.sites[sid].crash()
        outcome = rig.write("k", "v")
        assert outcome.success
        assert outcome.quorum == frozenset(range(3, 8))

    def test_write_fails_when_no_level_complete(self):
        rig = Rig(max_attempts=1)
        rig.sites[0].crash()
        rig.sites[3].crash()
        outcome = rig.write("k", "v")
        assert not outcome.success
        assert outcome.reason is FailureReason.UNAVAILABLE

    def test_version_floor_prevents_collisions(self):
        """A write that cannot see the previous write's level still gets a
        strictly larger version (the coordinator is the serialisation
        point)."""
        rig = Rig()
        first = rig.write("k", "a")          # goes to the 3-level
        for sid in first.quorum:
            rig.sites[sid].crash()           # hide it completely
        second = rig.write("k", "b")
        assert second.success
        assert second.timestamp.version > first.timestamp.version

    def test_monotone_storage_after_recovery(self):
        rig = Rig()
        first = rig.write("k", "a")
        for sid in first.quorum:
            rig.sites[sid].crash()
        rig.write("k", "b")
        for sid in first.quorum:
            rig.sites[sid].recover()
        outcome = rig.read("k")
        assert outcome.value == "b"


class TestLocking:
    def test_locks_released_after_operations(self):
        rig = Rig()
        rig.write("k", "v")
        rig.read("k")
        assert rig.locks.holders("k") == {}

    def test_locks_released_after_failures(self):
        rig = Rig(max_attempts=1)
        for sid in (0, 1, 2):
            rig.sites[sid].crash()
        rig.read("k")
        rig.write("k", "v")
        assert rig.locks.holders("k") == {}

    def test_concurrent_writes_serialise(self):
        rig = Rig()
        done = []
        rig.coordinator.write("k", "a", done.append)
        rig.coordinator.write("k", "b", done.append)
        rig.scheduler.run()
        assert len(done) == 2
        assert all(outcome.success for outcome in done)
        versions = sorted(outcome.timestamp.version for outcome in done)
        assert versions == [1, 2]


class TestBaselineSystems:
    def test_tree_quorum_protocol_plugs_in_directly(self):
        from repro.protocols.tree_quorum import TreeQuorumProtocol

        system = TreeQuorumProtocol(7)
        live = set(range(7))
        read = system.select_read_quorum(lambda sid: sid in live)
        write = system.select_write_quorum(lambda sid: sid in live)
        assert read == write == frozenset({0, 1, 3})


class TestDecisionService:
    def test_recovered_participant_gets_commit(self):
        rig = Rig()
        outcome = rig.write("k", "v")
        victim = sorted(outcome.quorum)[0]
        # fake an in-doubt state: re-prepare then crash before decision
        from repro.sim.messages import DecisionRequest

        rig.network.send(DecisionRequest(src=victim, dst=-1, txid=999))
        rig.scheduler.run()
        # unknown txid -> presumed abort; known committed txid -> commit
        # the site got an abort for unknown txid 999 (no crash needed)
        assert rig.sites[victim].stats.aborts >= 1
