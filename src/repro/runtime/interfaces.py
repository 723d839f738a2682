"""The transport seam: what protocol logic is allowed to know about time
and message delivery.

The coordinator, site, lock, lease, and retry machinery were written
against the discrete-event simulator, but nothing in the *protocol* needs
virtual time or the simulator's delivery model — only the narrow surface
captured here:

* :class:`Clock` — scheduling primitives.  ``now`` is a monotone float
  (virtual seconds in the simulator, ``loop.time()`` wall seconds in the
  asyncio runtime); ``call_later`` is the handle-free fire-and-forget
  workhorse, ``call_at`` its absolute-time twin (a workload's arrivals,
  accumulated from ``now``); ``schedule`` returns a cancellable handle
  (timeouts).  The simulator's :class:`~repro.sim.events.Scheduler`
  satisfies it natively; :class:`~repro.runtime.clock.AsyncClock` adapts
  an asyncio event loop.
* :class:`Transport` — endpoint registry plus message delivery.  The
  simulator's :class:`~repro.sim.network.Network` satisfies it (latency
  models, partitions and drop probabilities are backend detail behind
  ``send``); :class:`~repro.runtime.transport.TcpTransport` carries the
  same messages as length-prefixed JSON frames over real sockets, and
  :class:`~repro.runtime.loopback.LoopbackTransport` is the minimal
  in-process implementation used by the seam conformance tests.

Protocol code must not reach past this surface — in particular it must
not hold a simulator ``Scheduler`` of its own nor assume zero-latency
self-delivery.  Everything above the seam runs unchanged on
either backend; that is the repo's "same protocol logic, two backends"
contract.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, Protocol, runtime_checkable


@runtime_checkable
class CancelHandle(Protocol):
    """A scheduled event that can still be revoked."""

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""


@runtime_checkable
class Clock(Protocol):
    """Scheduling surface the protocol layer is allowed to use.

    ``now`` must be monotone non-decreasing.  Callbacks scheduled with
    equal delays must fire in scheduling order (both backends guarantee
    it with the same (time, sequence) heap of the simulator's entries;
    the asyncio clock also drains zero-delay callbacks as one FIFO).
    """

    @property
    def now(self) -> float:
        """Current time in seconds (virtual or wall-clock)."""
        ...

    def call_later(
        self, delay: float, callback: Callable[..., Any], arg: Any = ...
    ) -> None:
        """Fire-and-forget: run ``callback`` (with ``arg``, if given)
        after ``delay`` seconds."""
        ...

    def call_at(
        self, when: float, callback: Callable[..., Any], arg: Any = ...
    ) -> None:
        """Fire-and-forget at absolute time ``when``; a deadline before
        the clock's present raises ``ValueError``."""
        ...

    def schedule(
        self, delay: float, callback: Callable[..., Any], arg: Any = ...
    ) -> CancelHandle:
        """Like :meth:`call_later` but returns a cancellable handle."""
        ...


@runtime_checkable
class Endpoint(Protocol):
    """Anything registered on a transport: has liveness and receives."""

    up: bool

    def receive(self, message: Any) -> None:
        """Handle one protocol message addressed to this endpoint."""


@runtime_checkable
class Transport(Protocol):
    """Delivery surface the protocol layer is allowed to use.

    A transport owns a :class:`Clock` (exposed as ``clock``), a registry
    of local endpoints, and one-way message delivery.  Messages carry
    their own ``src``/``dst``; ``send`` may drop (dead peer, partition,
    loss model) — the protocol's timeout/retry machinery is the only
    delivery guarantee.
    """

    @property
    def clock(self) -> Clock:
        """The clock events on this transport are timed by."""
        ...

    def register(self, sid: int, endpoint: Endpoint) -> None:
        """Attach a local endpoint under site id ``sid``."""
        ...

    def send(self, message: Any) -> None:
        """Deliver ``message`` to ``message.dst`` (may drop silently)."""
        ...

    def broadcast(self, messages: list) -> None:
        """Deliver a batch of messages (same semantics as ``send``)."""
        ...
