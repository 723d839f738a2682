"""The minimal in-process :class:`~repro.runtime.interfaces.Transport`.

A loopback transport is the seam's existence proof: it implements exactly
the surface protocol code is allowed to use — a clock, an endpoint
registry, ``send``/``broadcast`` with a fixed delivery delay, and the
liveness-epoch counter — and *nothing* simulator-specific (no
``scheduler`` attribute, no RNG, no partitions).  The conformance suite
runs the full coordinator/site protocol over it to prove the protocol
layer never reaches past the seam; it works identically over the
simulator's :class:`~repro.sim.events.Scheduler` (virtual time) and the
runtime's :class:`~repro.runtime.clock.AsyncClock` (wall time).
"""

from __future__ import annotations

from typing import Any

from repro.runtime.interfaces import Clock, Endpoint


class LoopbackTransport:
    """Direct in-process delivery after a fixed per-message delay."""

    def __init__(self, clock: Clock, delay: float = 0.0) -> None:
        if delay < 0:
            raise ValueError("delay cannot be negative")
        self._clock = clock
        self._delay = delay
        self._endpoints: dict[int, Endpoint] = {}
        self._liveness_epoch = 0
        #: Deliveries dropped because the destination was missing or down.
        self.dropped = 0
        #: Messages handed to :meth:`send`/:meth:`broadcast`.
        self.sent = 0

    @property
    def clock(self) -> Clock:
        """The clock deliveries are timed by."""
        return self._clock

    # -- registry ------------------------------------------------------

    def register(self, sid: int, endpoint: Endpoint) -> None:
        """Attach a local endpoint under ``sid``."""
        if sid in self._endpoints:
            raise ValueError(f"SID {sid} already registered")
        self._endpoints[sid] = endpoint

    # -- liveness epochs ----------------------------------------------

    def current_liveness_epoch(self) -> int:
        """Counter bumped whenever any endpoint's liveness can change."""
        return self._liveness_epoch

    def bump_liveness_epoch(self) -> None:
        """Invalidate cached live-set views (sites call this on crash)."""
        self._liveness_epoch += 1

    # -- delivery ------------------------------------------------------

    def send(self, message: Any) -> None:
        """Deliver after the fixed delay; liveness checked at delivery."""
        self.sent += 1
        self._clock.call_later(self._delay, self._deliver, message)

    def broadcast(self, messages: list) -> None:
        """Send each message in order (same per-message semantics)."""
        for message in messages:
            self.send(message)

    def _deliver(self, message: Any) -> None:
        endpoint = self._endpoints.get(message.dst)
        if endpoint is None or not endpoint.up:
            self.dropped += 1
            return
        endpoint.receive(message)
