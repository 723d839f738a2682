"""Wall-clock :class:`~repro.runtime.interfaces.Clock` over an event loop.

The simulator's :class:`~repro.sim.events.Scheduler` *is* a Clock; this
module is its real-time twin, and it keeps the simulator's queue design.
The loop is asyncio's on the coordinator and a site's
:class:`~repro.runtime.loop.SelectorLoop` in a ``repro serve`` child:
the clock calls only ``time``, ``call_soon``, ``call_at`` (and the
handle's ``cancel``), ``call_exception_handler`` and reads ``_ready``,
which both loops have, so it imports no asyncio of its own.
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
Zero-delay callbacks join a FIFO that one ``loop.call_soon`` drains.
:class:`~repro.runtime.connection.Connection` flushes do not: they join
a second FIFO, :meth:`AsyncClock.call_when_idle`, which runs once the
loop has nothing else runnable, or after :data:`IDLE_WAIT_ITERATIONS`
loop iterations if it never runs dry.

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

**Idle callbacks.**  :meth:`AsyncClock.call_when_idle` is for work that
gets cheaper the more of it waits: a connection's pending frames leave
in one ``send(2)`` however many there are, and each write wakes the
peer process once.  The batch is checked one loop iteration after its
first callback was queued; it runs if the loop's ready queue is empty
then — every callback this iteration had to run has run, so nothing
more can join without new I/O or a timer — and otherwise checks again on
the next iteration, at most :data:`IDLE_WAIT_ITERATIONS` times.  On a
quiet loop it therefore runs on the same iteration a zero-delay
callback would; on a saturated one, once per round of replies.  The
ready queue is the loop's private ``loop._ready``, read through
``getattr`` like ``_clock_resolution`` above; a loop without one counts
as always idle, so the batch runs on the first check.  The clocks on one
loop share one batch: a check of their own would be "something else
runnable" to each other, and every batch would wait the whole cap.
"""

from __future__ import annotations

import heapq
import time as _time
import weakref
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.sim.events import (
    _ARG,
    _CALLBACK,
    _COMPACT_MIN_CANCELLED,
    _NO_ARG,
    _TIME,
    EventHandle,
)

if TYPE_CHECKING:
    import asyncio

_INF = float("inf")

#: ``_armed_for`` while the timer batch runs: nothing re-arms the loop
#: timer until the batch has ended and re-arms it once.
_FIRING = -_INF

#: The cancellable handle :meth:`AsyncClock.schedule` returns (the
#: simulator's: ``cancel()`` and the absolute ``time``).
AsyncTimerHandle = EventHandle

#: Most loop iterations an idle batch waits for the loop to run dry, so
#: a loop that never does (a task spinning on ``sleep(0)``) still
#: flushes.  Under 16 closed-loop clients a write carried no more frames
#: past 4 to 8 checks (EXPERIMENTS.md, "A site wakes once per round").
IDLE_WAIT_ITERATIONS = 8


class _IdleBatch(list):
    """The idle entries of every clock on one loop; ``checks`` counts the
    iterations they have waited for the loop to run dry."""

    checks = 0


#: loop -> a weak reference to its clocks' idle batch: the clocks keep
#: the batch alive, and a finished loop takes its entry with it.
_IDLE_BATCHES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class AsyncClock:
    """An event loop seen through the transport-seam Clock.

    ``loop`` defaults to the running asyncio loop; a site process passes
    its :class:`~repro.runtime.loop.SelectorLoop`.
    """

    __slots__ = (
        "_loop",
        "_resolution",
        "_queue",
        "_sequence",
        "_cancelled",
        "_timer",
        "_armed_for",
        "_ready",
        "_loop_ready",
        "_idle",
        "_floor",
    )

    def __init__(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        if loop is None:
            import asyncio

            loop = asyncio.get_running_loop()
        self._loop = loop
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
        # The loop's own ready queue: empty when nothing else is runnable.
        self._loop_ready = getattr(self._loop, "_ready", ())
        # The earliest deadline call_at accepts (see there).
        self._floor = self._loop.time()
        ref = _IDLE_BATCHES.get(self._loop)
        self._idle = ref() if ref is not None else None
        if self._idle is None:
            self._idle = _IdleBatch()
            _IDLE_BATCHES[self._loop] = weakref.ref(self._idle)

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

    def call_at(
        self,
        when: float,
        callback: Callable[..., Any],
        arg: Any = _NO_ARG,
    ) -> None:
        """Fire-and-forget: run ``callback`` once the loop's time reaches
        ``when``.

        A deadline before the clock's present raises, as the simulator's
        does.  The present is the deadline of the timer running or run
        last, capped at the loop's time then (before any, the clock's
        creation): a timer may chain deadlines off its own however late
        it ran, as a workload's arrivals do, and one already behind the
        loop's time fires on the next pass over the timers.
        """
        if when < self._floor:
            raise ValueError(
                f"cannot schedule into the past (when={when}, "
                f"now={self._floor})"
            )
        self._push(when, callback, arg)

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
        now = loop.time()
        horizon = now + self._resolution
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
                time = entry[_TIME]
                self._floor = time if time < now else now
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
        try:
            _run(self._loop, batch)
        except BaseException:  # cut short: the rest goes first next time
            rest = [entry for entry in batch if entry[_CALLBACK] is not None]
            if rest:
                if not self._ready:
                    self._loop.call_soon(self._drain)
                self._ready[:0] = rest
            raise

    # -- idle callbacks ---------------------------------------------------

    def call_when_idle(self, callback: Callable[[], Any]) -> None:
        """Run ``callback`` once the loop has nothing else runnable (see
        the module's "Idle callbacks")."""
        idle = self._idle
        if not idle:
            idle.checks = 0
            self._loop.call_soon(self._run_idle)
        idle.append([0.0, 0, callback, _NO_ARG])

    def _run_idle(self) -> None:
        """Run the loop's idle batch, or look again next iteration."""
        idle = self._idle
        if self._loop_ready and idle.checks < IDLE_WAIT_ITERATIONS:
            idle.checks += 1
            self._loop.call_soon(self._run_idle)
            return
        batch = idle[:]
        idle.clear()
        try:
            _run(self._loop, batch)
        except BaseException:  # as in _drain
            rest = [entry for entry in batch if entry[_CALLBACK] is not None]
            if rest:
                if not idle:
                    idle.checks = 0
                    self._loop.call_soon(self._run_idle)
                idle[:0] = rest
            raise


def _run(loop: asyncio.AbstractEventLoop, batch: list[list]) -> None:
    """Run a batch's live entries in order; an exception goes to the loop
    and the batch goes on, ``SystemExit`` and ``KeyboardInterrupt``
    propagate.  A run entry's callback is cleared before it is called,
    so what a propagating exception left unrun still has one."""
    for entry in batch:
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
