"""Transport-seam regression tests.

The protocol layer (coordinator, site, locks, leases, retries) may only
touch the surface in :mod:`repro.runtime.interfaces`.  These tests run
the full protocol over :class:`~repro.runtime.loopback.LoopbackTransport`
— a transport that deliberately has NO ``scheduler`` attribute — so any
code path that still reaches for simulator internals
(``network.scheduler``, cached ``Scheduler`` references) fails loudly.
Before the seam fix, ``QuorumCoordinator.__init__`` and
``Site.__init__`` both did ``network.scheduler`` and the leased-read
completion path scheduled via a cached simulator reference: every test
in this module failed with ``AttributeError``.
"""

import random

import pytest

from repro.core.builder import from_spec
from repro.core.protocol import ArbitraryProtocol
from repro.runtime.loopback import LoopbackTransport
from repro.sim.coordinator import QuorumCoordinator
from repro.sim.events import Scheduler
from repro.sim.leases import LeaseCache
from repro.sim.locks import LockManager
from repro.sim.site import Site


def _build(spec="1-3", delay=0.1, leases=False):
    clock = Scheduler()
    transport = LoopbackTransport(clock, delay=delay)
    assert not hasattr(transport, "scheduler")  # the point of the suite
    system = ArbitraryProtocol(from_spec(spec))
    n = len(system.universe)
    sites = [Site(sid, transport) for sid in range(n)]
    locks = LockManager(clock)
    lease_cache = (
        LeaseCache(epoch=transport.current_liveness_epoch) if leases else None
    )
    coordinator = QuorumCoordinator(
        sid=-1,
        network=transport,
        system=system,
        locks=locks,
        detector=lambda sid: sites[sid].up,
        rng=random.Random(7),
        timeout=10.0,
        writer_id=n,
        liveness_epoch=transport.current_liveness_epoch,
        leases=lease_cache,
    )
    return clock, transport, sites, coordinator


class TestProtocolOverSeamOnlyTransport:
    def test_write_then_read_completes(self):
        clock, transport, sites, coordinator = _build()
        outcomes = []
        coordinator.write("k", "v1", outcomes.append)
        clock.run()
        coordinator.read("k", outcomes.append)
        clock.run()
        assert [o.success for o in outcomes] == [True, True]
        assert outcomes[1].value == "v1"
        assert outcomes[1].timestamp.version == 1
        assert transport.sent > 0 and transport.dropped == 0

    def test_crash_retry_and_timeout_go_through_the_clock(self):
        clock, transport, sites, coordinator = _build(spec="1-3")
        outcomes = []
        coordinator.write("k", "v1", outcomes.append)
        clock.run()
        sites[2].crash()  # 1-3 write quorum needs all three: writes die
        coordinator.read("k", outcomes.append)  # reads survive
        clock.run()
        coordinator.write("k", "v2", outcomes.append)
        clock.run()
        assert [o.success for o in outcomes] == [True, True, False]
        # The failure consumed real (virtual) time through the seam clock
        # — unavailability retries are scheduled, not synchronous.
        assert clock.now > 0.0

    def test_site_recovery_termination_protocol_over_seam(self):
        clock, transport, sites, coordinator = _build(spec="1-3")
        outcomes = []
        coordinator.write("k", "v1", outcomes.append)
        clock.run()
        sites[1].crash()
        sites[1].recover()  # DecisionRequest flows back through the seam
        clock.run()
        assert outcomes[0].success


class TestLeasedReadDelivery:
    """The leased-read fast path must deliver through the seam clock."""

    def _leased_setup(self):
        clock, transport, sites, coordinator = _build(leases=True)
        outcomes = []
        coordinator.write("k", "v1", outcomes.append)  # write-through grant
        clock.run()
        assert outcomes[0].success
        return clock, coordinator, outcomes

    def test_leased_read_is_asynchronous(self):
        clock, coordinator, outcomes = self._leased_setup()
        coordinator.read("k", outcomes.append)
        # Regression: delivery must be scheduled, never synchronous —
        # a closed-loop caller would otherwise recurse into itself.
        assert len(outcomes) == 1
        clock.run()
        assert len(outcomes) == 2
        assert outcomes[1].leased and outcomes[1].value == "v1"

    def test_leased_delivery_preserves_event_order(self):
        clock, coordinator, outcomes = self._leased_setup()
        order = []
        coordinator.read("k", lambda o: order.append("read-1"))
        clock.call_later(0.0, lambda: order.append("marker"))
        coordinator.read("k", lambda o: order.append("read-2"))
        clock.run()
        # Zero-delay events fire in scheduling order on both backends
        # (heap (time, seq) order / asyncio FIFO): the first leased read
        # precedes the foreign marker event, the second follows it.
        assert order == ["read-1", "marker", "read-2"]


class TestSeamSurface:
    def test_coordinator_clock_and_legacy_alias(self):
        clock, transport, sites, coordinator = _build()
        # The one time surface on any transport (the ``scheduler`` alias
        # reconfiguration and the engine used to reach it by is gone).
        assert coordinator.clock is clock
        assert not hasattr(coordinator, "scheduler")

    def test_sim_network_exposes_the_same_object_for_both(self):
        from repro.sim.network import Network

        scheduler = Scheduler()
        network = Network(scheduler, random.Random(0))
        assert network.clock is scheduler
        assert network.scheduler is scheduler

    def test_duplicate_registration_rejected(self):
        clock = Scheduler()
        transport = LoopbackTransport(clock)
        transport.register(0, object.__new__(Site))
        with pytest.raises(ValueError, match="already registered"):
            transport.register(0, object.__new__(Site))
