"""Unit tests for replica service times and FIFO queueing."""

import random

import pytest

from repro.sim.events import Scheduler
from repro.sim.messages import ReadReply, ReadRequest
from repro.sim.network import Network
from repro.sim.site import Site


class Client:
    up = True

    def __init__(self):
        self.received = []

    def receive(self, message):
        self.received.append(message)


@pytest.fixture
def rig():
    scheduler = Scheduler()
    network = Network(scheduler, random.Random(0), latency=1.0)
    client = Client()
    network.register(-1, client)
    return scheduler, network, client


def _ask(network, rid):
    network.send(ReadRequest(src=-1, dst=0, key="k", request_id=rid))


class TestServiceTime:
    def test_zero_service_time_is_immediate(self, rig):
        scheduler, network, client = rig
        Site(0, network, service_time=0.0)
        _ask(network, 1)
        scheduler.run()
        assert scheduler.now == 2.0  # pure network round trip

    def test_positive_service_time_delays_reply(self, rig):
        scheduler, network, client = rig
        Site(0, network, service_time=3.0)
        _ask(network, 1)
        scheduler.run()
        assert scheduler.now == 5.0  # 1 out + 3 service + 1 back
        assert len(client.received) == 1

    def test_queue_serialises_requests(self, rig):
        scheduler, network, client = rig
        Site(0, network, service_time=2.0)
        for rid in (1, 2, 3):
            _ask(network, rid)
        scheduler.run()
        # arrivals at t=1; service back-to-back: replies sent at 3, 5, 7
        assert scheduler.now == 8.0  # last reply delivered at 7 + 1
        assert [m.request_id for m in client.received] == [1, 2, 3]

    def test_max_queue_depth_recorded(self, rig):
        scheduler, network, client = rig
        site = Site(0, network, service_time=2.0)
        for rid in range(5):
            _ask(network, rid)
        scheduler.run()
        # the first arrival goes straight into service; four wait behind it
        assert site.stats.max_queue_depth == 4

    def test_crash_drops_queued_messages(self, rig):
        scheduler, network, client = rig
        site = Site(0, network, service_time=2.0)
        for rid in (1, 2, 3):
            _ask(network, rid)
        scheduler.run(until=1.5)  # all three queued, none served yet
        site.crash()
        scheduler.run()
        assert client.received == []

    def test_recovery_serves_new_traffic(self, rig):
        scheduler, network, client = rig
        site = Site(0, network, service_time=1.0)
        site.crash()
        site.recover()
        _ask(network, 9)
        scheduler.run()
        assert [m.request_id for m in client.received] == [9]

    def test_negative_service_time_rejected(self, rig):
        _scheduler, network, _client = rig
        with pytest.raises(ValueError, match="service time"):
            Site(0, network, service_time=-1.0)

    def test_replies_are_correct_under_queueing(self, rig):
        scheduler, network, client = rig
        site = Site(0, network, service_time=1.0)
        from repro.sim.replica import Timestamp

        site.store.apply_write("k", "v", Timestamp(4, 0))
        _ask(network, 7)
        scheduler.run()
        (reply,) = client.received
        assert isinstance(reply, ReadReply)
        assert reply.value == "v" and reply.timestamp == Timestamp(4, 0)


class LateClock:
    """A wall clock whose timers all fire ``lateness`` after they are due.

    asyncio's ``call_later`` runs a callback up to a millisecond past its
    deadline; this is that clock, made deterministic.
    """

    def __init__(self, lateness):
        self.now = 0.0
        self.lateness = lateness
        self._timers = []  # (fire time, sequence, callback, arg)

    def call_later(self, delay, callback, arg):
        assert delay >= 0.0
        self._timers.append(
            (self.now + delay + self.lateness, len(self._timers), callback, arg)
        )

    def run(self):
        while self._timers:
            timer = min(self._timers)
            self._timers.remove(timer)
            self.now, _, callback, arg = timer
            callback(arg)


class LateTransport:
    """The seam a site needs, over a :class:`LateClock`."""

    def __init__(self, clock):
        self.clock = clock
        self.sent_at = []
        self.sent = []

    def register(self, sid, endpoint):
        pass

    def bump_liveness_epoch(self):
        pass

    def send(self, message):
        self.sent_at.append(self.clock.now)
        self.sent.append(message)


class TestPacingOnALateClock:
    """Timer lateness must delay one message, not accumulate over all."""

    SERVICE_TIME = 0.004
    LATENESS = 0.0008

    def _drain(self, messages):
        clock = LateClock(self.LATENESS)
        transport = LateTransport(clock)
        site = Site(0, transport, service_time=self.SERVICE_TIME)
        for rid in range(messages):
            site.receive(ReadRequest(src=-1, dst=0, key="k", request_id=rid))
        clock.run()
        assert len(transport.sent_at) == messages
        return transport.sent_at

    def test_hundred_messages_finish_one_lateness_past_the_bound(self):
        sent_at = self._drain(100)
        # 100 x 4 ms of service plus ONE timer's lateness (0.4008 s); the
        # drifting loop took 100 x 4.8 ms = 0.48 s.
        assert sent_at[-1] == pytest.approx(0.4 + self.LATENESS)

    def test_never_faster_than_one_message_per_service_time(self):
        sent_at = self._drain(100)
        gaps = [b - a for a, b in zip(sent_at, sent_at[1:])]
        assert min(gaps) >= self.SERVICE_TIME - 1e-12

    def test_a_stall_restarts_the_schedule_without_a_burst(self):
        clock = LateClock(0.0)
        transport = LateTransport(clock)
        site = Site(0, transport, service_time=self.SERVICE_TIME)
        for rid in range(3):
            site.receive(ReadRequest(src=-1, dst=0, key="k", request_id=rid))
        clock.lateness = 0.010  # the loop stalls for 2.5 service times
        clock.run()
        # The second message is due at 8 ms and served at 18 ms; the
        # schedule restarts there instead of serving the third, "owed"
        # since 12 ms, back to back with it.
        assert transport.sent_at == pytest.approx([0.004, 0.018, 0.032])

    def test_a_crash_and_recovery_inside_one_service_period_leaves_one_chain(self):
        """The timer armed before the crash still fires.  It used to find
        the site up again, answer the message the crash had lost and pull
        the next one off the queue — a second service chain beside the
        one the recovery started, so the site served two messages per
        service time."""
        clock = LateClock(0.0)
        transport = LateTransport(clock)
        site = Site(0, transport, service_time=self.SERVICE_TIME)

        def ask(rid):
            site.receive(ReadRequest(src=-1, dst=0, key="k", request_id=rid))

        def bounce(_):
            site.crash()
            site.recover()
            for rid in (2, 3, 4):
                ask(rid)

        ask(0)  # in service until 4 ms
        ask(1)  # queued; both are lost in the crash
        clock.call_later(0.001, bounce, None)
        clock.run()
        assert [reply.request_id for reply in transport.sent] == [2, 3, 4]
        assert transport.sent_at == pytest.approx([0.005, 0.009, 0.013])
