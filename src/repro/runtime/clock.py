"""Wall-clock :class:`~repro.runtime.interfaces.Clock` over asyncio.

The simulator's :class:`~repro.sim.events.Scheduler` *is* a Clock; this
module is its real-time twin, and it keeps the simulator's queue design.
``now`` is the event loop's monotonic ``loop.time()``, so a coordinator
timeout of ``2.0`` means two wall seconds and retry backoff sleeps real
time — no protocol code can tell which clock it is running on.

**One queue design on both backends.**  A timer is the simulator's own
entry, ``[time, sequence, callback, arg]`` (:mod:`repro.sim.events`),
pushed onto one heap per clock; cancelling clears the callback and arg
in place, and the heap is compacted under the simulator's rule (at least
``_COMPACT_MIN_CANCELLED`` cancelled entries that are half the queue).
The loop sees **one** ``TimerHandle`` per clock, armed for the earliest
live entry and re-armed only when a new entry becomes the earliest — a
constant phase timeout, pushed behind every other one, never does.
Zero-delay callbacks join a FIFO that one ``loop.call_soon`` drains;
:class:`~repro.runtime.connection.Connection` flushes ride it too.

Why: every quorum phase arms a timeout that a healthy cluster cancels.
Measured on a 2-core VM with 16 in flight, an asyncio ``call_later`` +
``cancel`` pair costs 2.5–3.7 µs (a ``TimerHandle`` and a heap ordered
by a Python-level ``__lt__``) against 0.9 µs for the list heap, and a
``call_soon`` 0.85 µs against ≈ 0.1 µs for a FIFO append.

Contract, the same as asyncio's where asyncio has one:

* equal-deadline timers fire in scheduling order — stricter than the
  loop's heap, which orders by fire time alone; zero-delay callbacks
  fire in scheduling order too;
* a timer fires once ``loop.time() + clock resolution`` passes its time
  (asyncio's horizon; the site's service pacing measures its ``lag``
  against it);
* a callback that raises goes to ``loop.call_exception_handler`` and the
  rest of its batch still runs; ``SystemExit`` and ``KeyboardInterrupt``
  propagate, and what their batch had not run yet stays queued;
* a drain runs the callbacks queued before it started; one queued while
  it runs waits for the next drain, which is scheduled — as a
  ``call_soon`` from a ``call_soon`` callback waits a loop iteration.
"""

from __future__ import annotations

import asyncio
import heapq
import time as _time
from collections.abc import Callable
from typing import Any

from repro.sim.events import (
    _ARG,
    _CALLBACK,
    _COMPACT_MIN_CANCELLED,
    _NO_ARG,
    _TIME,
    EventHandle,
)

_INF = float("inf")

#: ``_armed_for`` while the timer batch runs: nothing re-arms the loop
#: timer until the batch has ended and re-arms it once.
_FIRING = -_INF

#: The cancellable handle :meth:`AsyncClock.schedule` returns (the
#: simulator's: ``cancel()`` and the absolute ``time``).
AsyncTimerHandle = EventHandle


class AsyncClock:
    """The asyncio event loop seen through the transport-seam Clock."""

    __slots__ = (
        "_loop",
        "_resolution",
        "_queue",
        "_sequence",
        "_cancelled",
        "_timer",
        "_armed_for",
        "_ready",
    )

    def __init__(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self._resolution = getattr(
            self._loop,
            "_clock_resolution",
            _time.get_clock_info("monotonic").resolution,
        )
        self._queue: list[list] = []  # timer entries, a (time, seq) heap
        self._sequence = 0
        self._cancelled = 0  # cancelled entries (at most) left in the heap
        self._timer: asyncio.TimerHandle | None = None  # the one loop timer
        self._armed_for = _INF  # when it fires; inf when there is none
        self._ready: list[list] = []  # zero-delay entries awaiting a drain

    @property
    def now(self) -> float:
        """Monotonic wall-clock seconds (``loop.time()``)."""
        return self._loop.time()

    # -- the public surface ----------------------------------------------

    def call_later(
        self,
        delay: float,
        callback: Callable[..., Any],
        arg: Any = _NO_ARG,
    ) -> None:
        """Fire-and-forget: run ``callback`` after ``delay`` wall seconds."""
        if delay == 0.0:
            # No handle reads a ready entry's time, so none is taken.
            self._queue_ready([0.0, 0, callback, arg])
        elif delay > 0:
            self._push(self._loop.time() + delay, callback, arg)
        else:
            raise ValueError(f"cannot schedule into the past (delay={delay})")

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        arg: Any = _NO_ARG,
    ) -> AsyncTimerHandle:
        """Like :meth:`call_later` but returns a cancellable handle."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        now = self._loop.time()
        if delay == 0.0:
            entry = [now, 0, callback, arg]
            self._queue_ready(entry)
        else:
            entry = self._push(now + delay, callback, arg)
        return EventHandle(self, entry)

    # -- timers ------------------------------------------------------------

    def _push(self, time: float, callback: Callable[..., Any], arg: Any) -> list:
        entry = [time, self._sequence, callback, arg]
        self._sequence += 1
        heapq.heappush(self._queue, entry)
        if time < self._armed_for:
            self._arm(time)
        return entry

    def _arm(self, time: float) -> None:
        """Point the one loop timer at ``time``."""
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self._loop.call_at(time, self._fire)
        self._armed_for = time

    def _note_cancelled(self) -> None:
        """:class:`EventHandle`'s cancel hook: the simulator's compaction.

        A cancelled zero-delay entry is counted too, so the count may
        overstate the heap's dead entries; that only compacts sooner.
        """
        self._cancelled += 1
        queue = self._queue
        if (
            self._cancelled >= _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 >= len(queue)
        ):
            queue[:] = [entry for entry in queue if entry[_CALLBACK] is not None]
            heapq.heapify(queue)
            self._cancelled = 0

    def _fire(self) -> None:
        """The loop timer: run every entry inside asyncio's horizon."""
        self._timer = None
        self._armed_for = _FIRING
        loop = self._loop
        horizon = loop.time() + self._resolution
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue and queue[0][_TIME] < horizon:
                entry = pop(queue)
                callback = entry[_CALLBACK]
                if callback is None:
                    self._cancelled -= 1
                    continue
                entry[_CALLBACK] = None
                arg = entry[_ARG]
                try:
                    if arg is _NO_ARG:
                        callback()
                    else:
                        callback(arg)
                except (SystemExit, KeyboardInterrupt):
                    raise
                except BaseException as exc:
                    _report(loop, callback, exc)
        finally:
            self._armed_for = _INF
            while queue and queue[0][_CALLBACK] is None:
                pop(queue)
                self._cancelled -= 1
            if queue:
                self._arm(queue[0][_TIME])

    # -- zero-delay callbacks --------------------------------------------

    def _queue_ready(self, entry: list) -> None:
        ready = self._ready
        if not ready:
            self._loop.call_soon(self._drain)
        ready.append(entry)

    def _drain(self) -> None:
        """Run what was queued before this drain, in scheduling order."""
        batch = self._ready
        self._ready = []
        loop = self._loop
        ran = 0
        try:
            for entry in batch:
                ran += 1
                callback = entry[_CALLBACK]
                if callback is None:
                    continue
                entry[_CALLBACK] = None
                arg = entry[_ARG]
                try:
                    if arg is _NO_ARG:
                        callback()
                    else:
                        callback(arg)
                except (SystemExit, KeyboardInterrupt):
                    raise
                except BaseException as exc:
                    _report(loop, callback, exc)
        finally:
            if ran < len(batch):  # cut short: the rest goes first next time
                if not self._ready:
                    loop.call_soon(self._drain)
                self._ready[:0] = batch[ran:]


def _report(
    loop: asyncio.AbstractEventLoop,
    callback: Callable[..., Any],
    exc: BaseException,
) -> None:
    """Hand a callback's exception to the loop, as asyncio's handles do."""
    loop.call_exception_handler({
        "message": f"Exception in callback {callback!r}",
        "exception": exc,
    })
