"""The overlapped write round: prepare at the version floor while a read
quorum verifies it (DESIGN §2.4).

A write whose key has a version floor sends ``PrepareMessage`` to a write
quorum W and ``VersionRequest`` to the members of a read quorum R outside
W in one tick; votes carry the voters' versions.  It commits only when
all of R ∪ W has answered and nothing observed exceeds the floor.
"""

import random
from dataclasses import replace

import pytest

from repro.core.builder import from_spec
from repro.core.protocol import ArbitraryProtocol
from repro.fault.detector import SuspectList
from repro.obs import SpanKind, TraceRecorder, phase_breakdown
from repro.obs.recorder import NULL_RECORDER
from repro.obs.report import render_phase_breakdown
from repro.protocols.zoo import PROTOCOL_NAMES, quorum_system
from repro.sim.coordinator import FailureReason, QuorumCoordinator, _Stage
from repro.sim.engine import simulate
from repro.sim.events import Scheduler
from repro.sim.locks import LockManager
from repro.sim.messages import (
    CommitMessage,
    PrepareMessage,
    VersionReply,
    VersionRequest,
    VoteMessage,
)
from repro.sim.network import Network
from repro.sim.replica import Timestamp
from repro.sim.site import Site
from tests.sim.test_legacy_stream_identity import _configs


class Rig:
    """One simulated cluster; every coordinator made here shares its
    sites and lock manager but keeps its *own* version floor."""

    def __init__(self, system=None, max_attempts=3):
        self.system = system or ArbitraryProtocol(from_spec("1-3-5"))
        self.scheduler = Scheduler()
        self.network = Network(self.scheduler, random.Random(0), latency=1.0)
        self.sites = [Site(sid, self.network) for sid in range(self.system.n)]
        self.locks = LockManager(self.scheduler)
        self.max_attempts = max_attempts
        #: (destination sid, message) for everything a site was handed.
        self.delivered = []
        for site in self.sites:
            site.receive = self._tap(site)

    def _tap(self, site):
        receive = site.receive

        def tapped(message):
            self.delivered.append((site.sid, message))
            receive(message)

        return tapped

    def coordinator(self, sid=-1, recorder=NULL_RECORDER):
        return QuorumCoordinator(
            recorder=recorder,
            sid=sid,
            network=self.network,
            system=self.system,
            locks=self.locks,
            detector=lambda member: self.sites[member].up,
            rng=random.Random(-sid),
            timeout=8.0,
            max_attempts=self.max_attempts,
            writer_id=self.system.n - sid,
        )

    def run(self, operation, *args):
        """Issue one operation, run it to completion, return its outcome
        and how long it took."""
        outcomes = []
        operation(*args, outcomes.append)
        self.scheduler.run()
        (outcome,) = outcomes
        return outcome, outcome.latency

    def nothing_left_behind(self, *coordinators):
        return all(
            not c._by_request and not c._by_txid for c in coordinators
        ) and all(not site._prepared for site in self.sites)


def test_a_known_floor_write_is_two_round_trips_and_one_message_fewer():
    rig = Rig()
    coordinator = rig.coordinator()
    first, first_took = rig.run(coordinator.write, "k", "v1")
    assert first.success and first_took == 6.0  # version, prepare, commit
    unknown_floor = len(rig.delivered)
    assert unknown_floor == 2 * len(first.quorum) + len(first.version_quorum)

    del rig.delivered[:]
    second, second_took = rig.run(coordinator.write, "k", "v2")
    assert second.success and second_took == 4.0  # one round trip fewer
    outside = second.version_quorum - second.quorum
    assert len(outside) == 1  # on 1-3-5 every R meets every W in one site
    assert len(rig.delivered) == 2 * len(second.quorum) + 1
    assert second.timestamp.version == first.timestamp.version + 1
    assert rig.nothing_left_behind(coordinator)


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_a_known_floor_write_contacts_exactly_r_union_w(name):
    """Zoo-wide: prepares and commits to W, version requests to R − W
    only, nothing else — R − W = ∅ (ROWA, where W is every site) sends no
    version request at all and verifies on the last vote."""
    rig = Rig(quorum_system(name, 9))
    coordinator = rig.coordinator()
    for round_ in range(6):  # several draws of (R, W)
        seeded, _ = rig.run(coordinator.write, f"k{round_}", "seed")
        assert seeded.success
        del rig.delivered[:]
        outcome, _ = rig.run(coordinator.write, f"k{round_}", "again")
        assert outcome.success and outcome.attempts == 1
        read_quorum, write_quorum = outcome.version_quorum, outcome.quorum
        assert any(q <= read_quorum for q in rig.system.read_quorums())
        assert any(q <= write_quorum for q in rig.system.write_quorums())
        outside = read_quorum - write_quorum
        if name == "rowa":
            assert not outside  # W is every site: no version request
        assert {sid for sid, _ in rig.delivered} == read_quorum | write_quorum
        assert len(rig.delivered) == 2 * len(write_quorum) + len(outside)
        asked = {
            sid for sid, message in rig.delivered
            if type(message) is VersionRequest
        }
        assert asked == outside
        assert outcome.timestamp.version == seeded.timestamp.version + 1
    assert rig.nothing_left_behind(coordinator)


def test_a_stale_floor_is_caught_by_the_read_quorum_and_prepared_again():
    """Two coordinators, separate floors.  B commits past what A's floor
    knows; A's next write speculates at the stale timestamp, the read
    quorum reports B's version, and A aborts and re-prepares above it."""
    rig = Rig()
    a, b = rig.coordinator(-1), rig.coordinator(-2)
    assert a._version_floor is not b._version_floor
    assert rig.run(a.write, "k", "a1")[0].success
    for value in ("b1", "b2", "b3"):
        theirs, _ = rig.run(b.write, "k", value)
        assert theirs.success
    assert a._version_floor["k"].version < theirs.timestamp.version

    aborts = sum(site.stats.aborts for site in rig.sites)
    outcomes = []
    started = rig.scheduler.now
    a.write("k", "a2", outcomes.append)
    rig.scheduler.run(until=started + 0.5)
    (ctx,) = a._by_txid.values()
    speculative = ctx.quorum  # prepared at the stale floor's timestamp
    assert ctx.write_timestamp.version <= theirs.timestamp.version
    rig.scheduler.run()
    (mine,) = outcomes
    took = mine.latency
    assert mine.success and mine.attempts == 1
    assert mine.timestamp.version == theirs.timestamp.version + 1
    aborted = sum(site.stats.aborts for site in rig.sites) - aborts
    assert aborted == len(speculative)
    assert took == 6.0  # overlapped round, second prepare, commit
    assert rig.nothing_left_behind(a, b)

    seen, _ = rig.run(a.read, "k")
    assert seen.value == "a2" and seen.timestamp == mine.timestamp
    # A's floor learnt what it saw: the next write speculates correctly.
    again, took = rig.run(a.write, "k", "a3")
    assert again.success and took == 4.0
    assert sum(site.stats.aborts for site in rig.sites) - aborts == aborted


def test_the_overlapped_round_is_one_prepare_span_and_spans_still_tile():
    rig = Rig()
    recorder = TraceRecorder()
    coordinator = rig.coordinator(recorder=recorder)
    rig.run(coordinator.write, "k", "v1")
    outcome, took = rig.run(coordinator.write, "k", "v2")
    assert recorder.open_spans() == []
    (root,) = [
        span for span in recorder.spans.values()
        if span.kind is SpanKind.OPERATION and span.start == outcome.started_at
    ]
    phases = [
        span for span in recorder.spans.values()
        if span.trace_id == root.trace_id and span.kind is SpanKind.PHASE
    ]
    assert [span.name for span in phases] == ["phase/prepare", "phase/commit"]
    prepare, commit = phases
    assert prepare.attributes["overlapped"] is True
    assert prepare.attributes["version_members"] == 1
    assert "overlapped" not in commit.attributes
    # the two phases cover the whole operation: nothing unattributed
    assert prepare.start == root.start and prepare.end == commit.start
    assert commit.end == root.end and root.duration == took
    (row,) = [
        stat for stat in phase_breakdown(recorder.finished_spans())
        if stat.phase == "phase/prepare"
    ]
    assert (row.count, row.overlapped) == (2, 1)
    table = render_phase_breakdown(phase_breakdown(recorder.finished_spans()))
    assert "overlapped" in table.splitlines()[0]


def test_an_unknown_floor_takes_the_version_round_first():
    rig = Rig()
    coordinator = rig.coordinator()
    coordinator.write("fresh", "v", lambda outcome: None)
    rig.scheduler.run(until=0.5)
    (ctx,) = coordinator._by_request.values()
    assert ctx.stage is _Stage.VERSION and not ctx.speculative
    rig.scheduler.run()
    assert rig.nothing_left_behind(coordinator)


class TestFailurePathsLeaveNothingBehind:
    def _overlapped(self, rig, coordinator):
        """Start a known-floor write and stop with its round in flight."""
        assert rig.run(coordinator.write, "k", "v1")[0].success
        outcomes = []
        coordinator.write("k", "v2", outcomes.append)
        rig.scheduler.run(until=rig.scheduler.now + 0.5)
        (ctx,) = coordinator._by_txid.values()
        assert ctx.stage is _Stage.PREPARE and ctx.speculative
        return ctx, outcomes

    def test_a_refused_vote(self):
        rig = Rig(max_attempts=1)
        coordinator = rig.coordinator()
        ctx, outcomes = self._overlapped(rig, coordinator)
        refuser = min(ctx.quorum)
        coordinator.receive(VoteMessage(refuser, -1, ctx.txid, False))
        assert not coordinator._by_request and not coordinator._by_txid
        rig.scheduler.run()
        (outcome,) = outcomes
        assert outcome.reason is FailureReason.VOTE_REFUSED
        assert outcome.failed_stage == "prepare"
        assert rig.nothing_left_behind(coordinator)

    def test_a_silent_version_member_times_the_round_out(self):
        """The member of R outside W never answers: every vote is in, the
        attempt still may not commit, and the timeout names the silent
        site as evidence."""
        rig = Rig(max_attempts=1)
        coordinator = rig.coordinator()
        coordinator._suspects = SuspectList(threshold=1)
        ctx, outcomes = self._overlapped(rig, coordinator)
        (silent,) = ctx.version_quorum - ctx.quorum
        rig.sites[silent].crash()
        rig.scheduler.run()
        (outcome,) = outcomes
        assert outcome.reason is FailureReason.TIMEOUT
        assert outcome.failed_stage == "prepare"
        assert silent in coordinator._suspects.suspected(rig.scheduler.now)
        # only the first write was ever applied anywhere
        assert {site.store.version_of("k").version for site in rig.sites} <= {0, 1}
        assert rig.nothing_left_behind(coordinator)

    def test_a_silent_voter_times_the_round_out_and_the_retry_commits(self):
        rig = Rig()
        coordinator = rig.coordinator()
        ctx, outcomes = self._overlapped(rig, coordinator)
        rig.sites[min(ctx.quorum)].crash()
        rig.scheduler.run()
        (outcome,) = outcomes
        assert outcome.success and outcome.attempts == 2
        assert rig.nothing_left_behind(coordinator)

    def test_no_write_quorum_for_the_second_prepare(self):
        """Mis-speculation, then every write quorum is down: the
        speculative txid is aborted before the operation gives up."""
        rig = Rig(max_attempts=1)
        a, b = rig.coordinator(-1), rig.coordinator(-2)
        assert rig.run(a.write, "k", "a1")[0].success
        assert rig.run(b.write, "k", "b1")[0].success
        assert rig.run(b.write, "k", "b2")[0].success
        outcomes = []
        a.write("k", "a2", outcomes.append)
        rig.scheduler.run(until=rig.scheduler.now + 1.5)  # votes in flight
        (ctx,) = a._by_txid.values()
        speculative = ctx.quorum
        # one site of each level goes down: no write quorum is left, the
        # votes already sent still arrive
        level_one, level_two = {0, 1, 2}, {3, 4, 5, 6, 7}
        for level in (level_one, level_two):
            rig.sites[min(level - ctx.version_quorum)].crash()
        rig.scheduler.run()
        (outcome,) = outcomes
        assert not outcome.success
        assert outcome.reason is FailureReason.UNAVAILABLE
        assert outcome.failed_stage == "prepare"
        for site in rig.sites:
            site.recover()
        rig.scheduler.run()
        assert all(
            rig.sites[sid].stats.aborts >= 1
            for sid in speculative if rig.sites[sid].stats.crashes == 0
        )
        assert rig.nothing_left_behind(a, b)

    @pytest.mark.parametrize("fate", ["lost", "refused"])
    def test_the_second_prepare_needs_every_vote_of_its_own(self, fate):
        """Mis-speculation, then one member of the second write quorum
        loses the prepare or refuses it.  The aborted txid's yes-votes
        must not stand in for it: no commit is sent and nothing applied."""
        rig = Rig(max_attempts=1)
        a, b = rig.coordinator(-1), rig.coordinator(-2)
        assert rig.run(a.write, "k", "a1")[0].success
        assert rig.run(b.write, "k", "b1")[0].success
        theirs, _ = rig.run(b.write, "k", "b2")
        outcomes = []
        started = rig.scheduler.now
        a.write("k", "a2", outcomes.append)
        rig.scheduler.run(until=started + 0.5)
        (ctx,) = a._by_txid.values()
        stale = ctx.txid
        rig.scheduler.run(until=started + 2.5)  # settled, prepared again
        assert ctx.txid != stale and not ctx.speculative
        odd_one = rig.sites[min(ctx.quorum)]
        receive = odd_one.receive

        def unwilling(message):
            if type(message) is not PrepareMessage:
                receive(message)
            elif fate == "refused":
                rig.network.send(
                    VoteMessage(odd_one.sid, message.src, message.txid, False)
                )

        odd_one.receive = unwilling
        del rig.delivered[:]
        rig.scheduler.run()
        (outcome,) = outcomes
        assert not outcome.success and outcome.failed_stage == "prepare"
        assert outcome.reason is (
            FailureReason.TIMEOUT if fate == "lost"
            else FailureReason.VOTE_REFUSED
        )
        assert not any(
            type(message) is CommitMessage for _, message in rig.delivered
        )
        assert all(
            site.store.version_of("k").version <= theirs.timestamp.version
            for site in rig.sites
        )
        assert rig.nothing_left_behind(a, b)

    def test_a_late_version_reply_after_the_round_settled_is_ignored(self):
        rig = Rig()
        coordinator = rig.coordinator()
        ctx, outcomes = self._overlapped(rig, coordinator)
        request_id = ctx.request_id
        rig.scheduler.run()
        assert outcomes[0].success
        coordinator.receive(
            VersionReply(3, -1, "k", request_id, Timestamp(99, 0))
        )
        assert rig.nothing_left_behind(coordinator)


@pytest.mark.parametrize(
    "name",
    [
        "tree_quorum_7_lossy",
        "tree_1-3-5_duplicating",
        "chaos_mass_crash_detector_retry",
        "chaos_flapping_invariants",
    ],
)
def test_the_auditor_stays_clean_on_the_faulty_golden_scenarios(name):
    config = replace(dict(_configs())[name], check_invariants=True)
    result = simulate(config)
    assert result.invariants is not None and result.invariants.ok
    assert result.summary()["writes"] > config.workload.keys  # floors known
