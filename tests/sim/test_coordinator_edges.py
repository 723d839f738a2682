"""Edge-case tests for the coordinator: lock timeouts, stale replies,
what a finished operation leaves behind, the bounded 2PC decision log."""

import random

import pytest

from repro.core.builder import from_spec
from repro.core.protocol import ArbitraryProtocol
from repro.sim.coordinator import (
    FailureReason,
    QuorumCoordinator,
)
from repro.sim.events import Scheduler
from repro.sim.locks import LockManager, LockMode
from repro.sim.network import Network
from repro.sim.site import Site


def make_rig(spec="1-3-5", lock_timeout=None, max_attempts=3, seed=0):
    tree = from_spec(spec)
    scheduler = Scheduler()
    network = Network(scheduler, random.Random(seed), latency=1.0)
    sites = [Site(sid, network) for sid in range(tree.n)]
    locks = LockManager(scheduler, wait_timeout=lock_timeout)
    coordinator = QuorumCoordinator(
        sid=-1,
        network=network,
        system=ArbitraryProtocol(tree),
        locks=locks,
        detector=lambda sid: sites[sid].up,
        rng=random.Random(seed + 1),
        timeout=8.0,
        max_attempts=max_attempts,
        writer_id=tree.n,
    )
    return tree, scheduler, network, sites, locks, coordinator


def at_rest(coordinator) -> bool:
    """No operation holds or awaits a lock, a reply or a vote."""
    return (
        coordinator.locks.idle
        and not coordinator._by_request
        and not coordinator._by_txid
    )


class TestLockTimeout:
    def test_blocked_writer_times_out(self):
        tree, scheduler, network, sites, locks, coordinator = make_rig(
            lock_timeout=5.0
        )
        outcomes = []
        # park an exclusive lock under a foreign transaction id so the
        # coordinator's request queues until the wait timeout fires
        locks.acquire(999_999, "k", LockMode.EXCLUSIVE, lambda granted: None)
        coordinator.write("k", "v", outcomes.append)
        scheduler.run()
        assert outcomes and not outcomes[0].success
        assert outcomes[0].reason is FailureReason.LOCK_TIMEOUT
        # the denied request left nothing queued behind the foreign holder
        locks.release(999_999, "k")
        assert at_rest(coordinator)


class TestStaleReplies:
    def test_replies_from_previous_attempt_ignored(self):
        tree, scheduler, network, sites, locks, coordinator = make_rig()
        outcomes = []
        coordinator.read("k", outcomes.append)
        # crash a quorum member while the request is in flight, forcing a
        # timeout and a second attempt; then recover it so the first
        # attempt's late reply (if any) would race the second attempt
        scheduler.run(until=0.5)
        sites[0].crash()
        scheduler.run(until=9.0)
        sites[0].recover()
        scheduler.run()
        assert len(outcomes) == 1  # on_done fired exactly once
        assert outcomes[0].success
        assert at_rest(coordinator)


class TestQuiescence:
    def test_counts_reads_and_writes(self):
        tree, scheduler, network, sites, locks, coordinator = make_rig()
        done = []
        assert at_rest(coordinator)
        coordinator.read("a", done.append)
        coordinator.write("b", 1, done.append)
        assert not at_rest(coordinator)
        scheduler.run()
        assert len(done) == 2
        assert at_rest(coordinator)

    def test_quiescent_after_failures_too(self):
        tree, scheduler, network, sites, locks, coordinator = make_rig(
            max_attempts=1
        )
        for sid in (0, 1, 2):
            sites[sid].crash()
        done = []
        coordinator.read("k", done.append)
        scheduler.run()
        assert done and not done[0].success
        assert at_rest(coordinator)


class TestDecisionLog:
    """The 2PC decision log holds only commits awaiting an acknowledgement."""

    def test_empty_after_many_writes_on_a_healthy_group(self):
        """Regression: the log gained one entry per write, for ever."""
        tree, scheduler, network, sites, locks, coordinator = make_rig()
        done = []
        for index in range(500):
            coordinator.write(f"k{index % 7}", index, done.append)
        scheduler.run()
        assert len(done) == 500 and all(outcome.success for outcome in done)
        assert not coordinator._decisions

    def test_aborts_are_presumed_not_logged(self):
        tree, scheduler, network, sites, locks, coordinator = make_rig(
            max_attempts=1
        )
        done = []
        coordinator.write("k", "v", done.append)
        scheduler.run(until=2.5)  # version round done, prepares in flight
        for site in sites:
            site.crash()  # nobody votes: the prepare phase times out
        scheduler.run()
        assert done and not done[0].success
        assert done[0].failed_stage == "prepare"
        assert not coordinator._decisions

    def test_member_crashed_between_vote_and_commit_learns_the_decision(self):
        """The commit completes by skipping the dead member, so its
        decision stays logged until that member asks on recovery, and
        goes once that member has applied it and acknowledged."""
        tree, scheduler, network, sites, locks, coordinator = make_rig()
        done = []
        coordinator.write("k", "v", done.append)
        # t=1 version requests land, t=2 replies, t=3 prepares land and
        # are voted on, t=4 votes reach the coordinator.
        scheduler.run(until=3.5)
        voter = next(site for site in sites if site._prepared)
        voter.crash()
        scheduler.run()
        assert done and done[0].success
        assert voter.sid in done[0].quorum
        assert len(coordinator._decisions) == 1
        voter.recover()
        scheduler.run()
        entry = voter.store.read("k")
        assert entry.value == "v"
        assert entry.timestamp == done[0].timestamp
        assert not coordinator._decisions

    def test_member_asking_while_votes_are_still_coming_is_not_told_abort(self):
        """Termination hole (d): site 0 votes, crashes, recovers and asks
        while the straggler's vote is still in flight.  Answered "abort",
        it dropped its prepare and then acknowledged the commit without
        applying it: an acknowledged write one quorum member never saw."""
        tree = from_spec("1-2")
        scheduler = Scheduler()
        network = Network(scheduler, random.Random(0), latency=1.0)
        sites = [Site(sid, network) for sid in range(tree.n)]
        coordinator = QuorumCoordinator(
            sid=-1, network=network, system=ArbitraryProtocol(tree),
            locks=LockManager(scheduler),
            detector=lambda sid: sites[sid].up, rng=random.Random(1),
            timeout=50.0, max_attempts=1, writer_id=tree.n,
        )
        network.set_site_latency_factor(1, 5.0)
        done = []
        coordinator.write("k", "v1", done.append)
        scheduler.run(until=3.5)
        assert sites[0]._prepared and not coordinator._decisions
        sites[0].crash()
        scheduler.run(until=5.0)
        sites[0].recover()  # asks at t=5; site 1's vote lands later
        scheduler.run()
        assert done[0].success and done[0].quorum == frozenset({0, 1})
        for site in sites:
            assert site.store.read("k").value == "v1"
            assert site.store.read("k").timestamp == done[0].timestamp
        reads = []
        for _ in range(6):
            coordinator.read("k", reads.append)
            scheduler.run()
        assert [read.value for read in reads] == ["v1"] * 6
        assert at_rest(coordinator) and not coordinator._decisions


class TestSystemIntrospection:
    def test_system_universe(self):
        tree, *_rest, coordinator = make_rig()
        assert coordinator.system_universe() == frozenset(range(8))

    def test_system_universe_unavailable_for_opaque_systems(self):
        tree, scheduler, network, sites, locks, coordinator = make_rig()

        class Opaque:
            def select_read_quorum(self, live, rng=None):
                return frozenset({0})

            def select_write_quorum(self, live, rng=None):
                return frozenset({0})

        coordinator.set_system(Opaque())
        with pytest.raises(TypeError, match="universe"):
            coordinator.system_universe()
