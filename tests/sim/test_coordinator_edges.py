"""Edge-case tests for the coordinator: stale replies,
what a finished operation leaves behind, the bounded 2PC decision log."""

import random

import pytest

from repro.core.builder import from_spec
from repro.core.protocol import ArbitraryProtocol
from repro.sim.coordinator import FailureReason, QuorumCoordinator
from repro.sim.events import Scheduler
from repro.sim.locks import LockManager
from repro.sim.messages import AbortMessage, PrepareMessage
from repro.sim.network import Network, PartitionSpec
from repro.sim.site import Site


def make_rig(spec="1-3-5", max_attempts=3, seed=0, detect_partitions=False):
    """``detect_partitions``: a site the coordinator cannot reach reads as
    dead, as it does to a timeout-based failure detector."""
    tree = from_spec(spec)
    scheduler = Scheduler()
    network = Network(scheduler, random.Random(seed), latency=1.0)
    sites = [Site(sid, network) for sid in range(tree.n)]
    locks = LockManager(scheduler)

    def detector(sid):
        return sites[sid].up and (
            not detect_partitions or network.reachable(-1, sid)
        )

    coordinator = QuorumCoordinator(
        sid=-1,
        network=network,
        system=ArbitraryProtocol(tree),
        locks=locks,
        detector=detector,
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
        scheduler.run(until=0.5)  # prepares in flight
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
        # t=1 prepares land and are voted on, t=2 votes reach the
        # coordinator.
        scheduler.run(until=1.5)
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


class TestTerminationHoles:
    """ROADMAP item 1's three 2PC termination holes, closed by a prepared
    site asking for its own decision once per timeout.  Each test ends
    with item 1's done-means assertion: once the run quiesces, no site
    holds a prepared write and the coordinator logs no decision.
    A write to a fresh key runs one overlapped round: its prepares (and
    the version requests to the read quorum outside the write quorum)
    land at t=1, votes reach the coordinator at t=2, the decision lands
    at t=3.
    """

    FOREIGN_TXID = 10**9

    @staticmethod
    def assert_settled(sites, coordinator) -> None:
        assert not coordinator._decisions
        assert [site.sid for site in sites if site._prepared] == []

    def hold_key_elsewhere(self, sites) -> None:
        """A foreign prepare on the key at one site of each physical
        level (1-3-5: sites 0 and 3), so whichever level the write picks,
        one member refuses its vote."""
        for sid in (0, 3):
            sites[sid]._on_prepare(PrepareMessage(
                -1, sid, self.FOREIGN_TXID, "k", "foreign",
            ))

    def release_key_elsewhere(self, sites) -> None:
        for sid in (0, 3):
            sites[sid]._on_abort(AbortMessage(-1, sid, self.FOREIGN_TXID))

    def test_member_partitioned_at_the_commit_broadcast(self):
        """Hole (a): the commit completes without a member it cannot
        reach; once the partition heals, the member asks, applies the
        commit and acknowledges, and the decision is forgotten."""
        tree, scheduler, network, sites, locks, coordinator = make_rig(
            detect_partitions=True
        )
        done = []
        coordinator.write("k", "v", done.append)
        scheduler.run(until=1.5)  # every member has voted
        member = min(site.sid for site in sites if site._prepared)
        network.set_partition(PartitionSpec.split({member}))
        scheduler.run(until=30.0)  # the commit completes without it
        assert done and done[0].success and member in done[0].quorum
        network.heal_partition()
        scheduler.run()
        self.assert_settled(sites, coordinator)

    def test_abort_to_one_member_dropped_after_a_refused_vote(self):
        """Hole (b): an abort is sent once and never acknowledged; the
        member that missed it asks, and presumed abort tells it."""
        tree, scheduler, network, sites, locks, coordinator = make_rig(
            max_attempts=1
        )
        done = []
        coordinator.write("k", "v", done.append)
        scheduler.run(until=0.5)  # the prepares are in flight
        self.hold_key_elsewhere(sites)
        scheduler.run(until=1.5)  # the prepares are voted on
        yes = min(
            site.sid for site in sites
            if set(site._prepared) - {self.FOREIGN_TXID}
        )
        network.set_partition(PartitionSpec.split({yes}))
        scheduler.run(until=10.0)  # the abort to ``yes`` is dropped
        assert done and not done[0].success
        network.heal_partition()
        self.release_key_elsewhere(sites)
        scheduler.run()
        self.assert_settled(sites, coordinator)

    def test_duplicate_prepare_arriving_after_its_abort(self):
        """Hole (c): a stale duplicate prepares the aborted txid again;
        one timeout later its site asks and is told abort."""
        tree, scheduler, network, sites, locks, coordinator = make_rig(
            max_attempts=1
        )
        done = []
        coordinator.write("k", "v", done.append)
        scheduler.run(until=0.5)
        self.hold_key_elsewhere(sites)
        scheduler.run(until=1.5)
        yes = next(
            site for site in sites
            if set(site._prepared) - {self.FOREIGN_TXID}
        )
        (txid,) = set(yes._prepared) - {self.FOREIGN_TXID}
        prepared = yes._prepared[txid]
        scheduler.run(until=10.0)  # refused, aborted everywhere
        assert done and not done[0].success and not yes._prepared
        # The link delivers the prepare a second time, late.
        network.send(PrepareMessage(
            -1, yes.sid, txid, prepared.key, prepared.value,
            prepared.timestamp,
        ))
        self.release_key_elsewhere(sites)
        scheduler.run()
        self.assert_settled(sites, coordinator)


def test_a_refused_vote_waits_for_the_orphaned_prepare_to_clear():
    """A lost abort leaves a prepare behind at one member; a write to the
    same key meets it and is refused.  With no retry policy the retry
    waits one timeout (as finding no quorum does), so the orphan's doubt
    tick clears it and a later attempt commits.  Retrying at once spent
    every attempt against the same orphan within a few round trips."""
    tree, scheduler, network, sites, locks, coordinator = make_rig(
        spec="1-3", max_attempts=1  # one level: every write quorum is {0,1,2}
    )
    first = []
    coordinator.write("k", "v1", first.append)
    scheduler.run(until=0.5)
    foreign = 10**9  # a prepare held elsewhere makes site 0 refuse
    sites[0]._on_prepare(PrepareMessage(-1, 0, foreign, "k", "foreign"))
    scheduler.run(until=1.5)  # sites 1 and 2 voted yes
    network.set_partition(PartitionSpec.split({1}))
    scheduler.run(until=5.0)  # the abort to site 1 is dropped
    assert first and first[0].reason is FailureReason.VOTE_REFUSED
    assert [site.sid for site in sites if set(site._prepared) - {foreign}] == [1]
    network.heal_partition()
    sites[0]._on_abort(AbortMessage(-1, 0, foreign))

    coordinator._max_attempts = 3
    second = []
    coordinator.write("k", "v2", second.append)
    scheduler.run()
    (outcome,) = second
    assert outcome.success and outcome.attempts > 1
    assert outcome.latency > 8.0  # at least one timeout between attempts
    assert all(site.store.read("k").value == "v2" for site in sites)
    assert not coordinator._decisions
    assert not any(site._prepared for site in sites)


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
