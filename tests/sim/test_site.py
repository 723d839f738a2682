"""Unit tests for replica sites: message handling, 2PC participation,
crash/recover with the termination protocol."""

import random

import pytest

from repro.sim.events import Scheduler
from repro.sim.messages import (
    AbortMessage,
    AckMessage,
    CommitMessage,
    DecisionRequest,
    PrepareMessage,
    ReadReply,
    ReadRequest,
    VersionReply,
    VersionRequest,
    VoteMessage,
)
from repro.sim.network import Network
from repro.sim.replica import Timestamp
from repro.sim.site import Site


class Client:
    """A recording endpoint standing in for the coordinator."""

    up = True

    def __init__(self):
        self.received = []

    def receive(self, message) -> None:
        self.received.append(message)

    def of_type(self, cls):
        return [m for m in self.received if isinstance(m, cls)]


@pytest.fixture
def rig():
    scheduler = Scheduler()
    network = Network(scheduler, random.Random(0), latency=1.0)
    client = Client()
    network.register(-1, client)
    site = Site(0, network)
    return scheduler, network, client, site


class TestLifecycle:
    def test_starts_up(self, rig):
        *_rest, site = rig
        assert site.up

    def test_crash_and_recover(self, rig):
        *_rest, site = rig
        site.crash()
        assert not site.up
        site.recover()
        assert site.up
        assert site.stats.crashes == 1
        assert site.stats.recoveries == 1

    def test_double_crash_counted_once(self, rig):
        *_rest, site = rig
        site.crash()
        site.crash()
        assert site.stats.crashes == 1

    def test_negative_sid_rejected(self, rig):
        _scheduler, network, *_ = rig
        with pytest.raises(ValueError, match="non-negative"):
            Site(-5, network)

    def test_repr(self, rig):
        *_rest, site = rig
        assert "sid=0" in repr(site)


class TestReads:
    def test_read_reply_carries_stored_value(self, rig):
        scheduler, network, client, site = rig
        site.store.apply_write("k", "v", Timestamp(3, 1))
        network.send(ReadRequest(src=-1, dst=0, key="k", request_id=9))
        scheduler.run()
        (reply,) = client.of_type(ReadReply)
        assert reply.value == "v"
        assert reply.timestamp == Timestamp(3, 1)
        assert reply.request_id == 9
        assert site.stats.reads_served == 1

    def test_version_reply(self, rig):
        scheduler, network, client, site = rig
        site.store.apply_write("k", "v", Timestamp(2, 0))
        network.send(VersionRequest(src=-1, dst=0, key="k", request_id=4))
        scheduler.run()
        (reply,) = client.of_type(VersionReply)
        assert reply.timestamp == Timestamp(2, 0)

    def test_unknown_message_type_raises(self, rig):
        *_rest, site = rig
        with pytest.raises(TypeError, match="cannot handle"):
            site.receive(AckMessage(src=-1, dst=0, txid=1))


class TestTwoPhaseCommit:
    def _prepare(self, network, txid=1, key="k", value="v", version=1):
        network.send(
            PrepareMessage(
                src=-1, dst=0, txid=txid, key=key, value=value,
                timestamp=Timestamp(version, -1),
            )
        )

    def test_prepare_votes_yes(self, rig):
        scheduler, network, client, site = rig
        self._prepare(network)
        scheduler.run()
        (vote,) = client.of_type(VoteMessage)
        assert vote.vote_commit
        assert site.stats.prepares == 1
        assert site.store.read("k").value is None  # not yet committed

    def test_commit_applies_write(self, rig):
        scheduler, network, client, site = rig
        self._prepare(network)
        network.send(CommitMessage(src=-1, dst=0, txid=1))
        scheduler.run()
        assert site.store.read("k").value == "v"
        (ack,) = client.of_type(AckMessage)
        assert ack.committed

    def test_abort_discards_write(self, rig):
        scheduler, network, client, site = rig
        self._prepare(network)
        network.send(AbortMessage(src=-1, dst=0, txid=1))
        scheduler.run()
        assert site.store.read("k").value is None
        (ack,) = client.of_type(AckMessage)
        assert not ack.committed

    def test_conflicting_prepare_refused(self, rig):
        scheduler, network, client, site = rig
        self._prepare(network, txid=1)
        self._prepare(network, txid=2)
        scheduler.run()
        votes = client.of_type(VoteMessage)
        assert [vote.vote_commit for vote in votes] == [True, False]
        assert site.stats.refused_prepares == 1

    def test_key_freed_after_decision(self, rig):
        scheduler, network, client, site = rig
        self._prepare(network, txid=1)
        network.send(AbortMessage(src=-1, dst=0, txid=1))
        self._prepare(network, txid=2, version=2)
        scheduler.run()
        votes = client.of_type(VoteMessage)
        assert all(vote.vote_commit for vote in votes)

    def test_commit_for_unknown_txid_acks_without_applying(self, rig):
        """Retransmitted commits are re-acked so lost acks cannot hang the
        coordinator, but nothing is applied twice."""
        scheduler, network, client, site = rig
        network.send(CommitMessage(src=-1, dst=0, txid=77))
        scheduler.run()
        (ack,) = client.of_type(AckMessage)
        assert ack.committed
        assert site.stats.commits == 0
        assert len(site.store) == 0


class TestRecoveryTermination:
    def test_recovery_queries_coordinator_for_in_doubt_txns(self, rig):
        scheduler, network, client, site = rig
        network.send(
            PrepareMessage(
                src=-1, dst=0, txid=5, key="k", value="v",
                timestamp=Timestamp(1, -1),
            )
        )
        scheduler.run()
        site.crash()   # crash between vote and decision
        site.recover()
        scheduler.run()
        (query,) = client.of_type(DecisionRequest)
        assert query.txid == 5

    def test_prepared_state_survives_crash(self, rig):
        scheduler, network, client, site = rig
        network.send(
            PrepareMessage(
                src=-1, dst=0, txid=5, key="k", value="v",
                timestamp=Timestamp(1, -1),
            )
        )
        scheduler.run()
        site.crash()
        site.recover()
        # a late commit still applies the write from the stable prepare log
        network.send(CommitMessage(src=-1, dst=0, txid=5))
        scheduler.run()
        assert site.store.read("k").value == "v"

    def test_clean_recovery_sends_nothing(self, rig):
        scheduler, _network, client, site = rig
        site.crash()
        site.recover()
        scheduler.run()
        assert client.of_type(DecisionRequest) == []
