"""Wall-clock :class:`~repro.runtime.interfaces.Clock` over asyncio.

The simulator's :class:`~repro.sim.events.Scheduler` *is* a Clock; this
module is its real-time twin.  ``now`` is the event loop's monotonic
``loop.time()`` and callbacks ride ``loop.call_later``, so a coordinator
timeout of ``2.0`` means two wall seconds and retry backoff sleeps real
time — no protocol code can tell which clock it is running on.

Ordering contract: zero-delay callbacks fire in scheduling order — the
same guarantee the simulator's (time, sequence) heap gives, which the
coordinator's zero-delay completion deliveries rely on.  They go on
asyncio's ready queue (``loop.call_soon``), which is FIFO by
construction; the loop's timer heap orders by fire time alone, so under
a clock coarser than the callbacks, timers due at the same instant fire
in no particular order.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable
from typing import Any

#: Sentinel ``arg`` meaning "call the callback with no argument at all"
#: (mirrors :data:`repro.sim.events._NO_ARG`; ``None`` is a legal value).
_NO_ARG = object()


class AsyncTimerHandle:
    """Cancellable handle for :meth:`AsyncClock.schedule` events.

    Wraps the loop's :class:`asyncio.Handle`; satisfies the seam's
    :class:`~repro.runtime.interfaces.CancelHandle` protocol and exposes
    the absolute fire time like the simulator's ``EventHandle`` does.
    """

    __slots__ = ("_handle", "_time")

    def __init__(self, handle: asyncio.Handle, time: float) -> None:
        self._handle = handle
        self._time = time

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self._handle.cancel()

    @property
    def time(self) -> float:
        """Absolute (loop) time the event is scheduled for."""
        return self._time


class AsyncClock:
    """The asyncio event loop seen through the transport-seam Clock."""

    __slots__ = ("_loop",)

    def __init__(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        self._loop = loop if loop is not None else asyncio.get_event_loop()

    @property
    def now(self) -> float:
        """Monotonic wall-clock seconds (``loop.time()``)."""
        return self._loop.time()

    def _arm(
        self, delay: float, callback: Callable[..., Any], arg: Any
    ) -> asyncio.Handle:
        """The loop handle running ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        args = () if arg is _NO_ARG else (arg,)
        if delay == 0.0:
            return self._loop.call_soon(callback, *args)
        return self._loop.call_later(delay, callback, *args)

    def call_later(
        self,
        delay: float,
        callback: Callable[..., Any],
        arg: Any = _NO_ARG,
    ) -> None:
        """Fire-and-forget: run ``callback`` after ``delay`` wall seconds."""
        self._arm(delay, callback, arg)

    def call_at(
        self,
        time: float,
        callback: Callable[..., Any],
        arg: Any = _NO_ARG,
    ) -> None:
        """Handle-free absolute-time variant of :meth:`call_later`."""
        self.call_later(time - self._loop.time(), callback, arg)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        arg: Any = _NO_ARG,
    ) -> AsyncTimerHandle:
        """Like :meth:`call_later` but returns a cancellable handle."""
        handle = self._arm(delay, callback, arg)
        return AsyncTimerHandle(handle, self._loop.time() + delay)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        arg: Any = _NO_ARG,
    ) -> AsyncTimerHandle:
        """Absolute-time variant of :meth:`schedule`."""
        return self.schedule(time - self._loop.time(), callback, arg)
