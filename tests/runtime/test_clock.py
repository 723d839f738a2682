"""AsyncClock: the wall-clock side of the transport seam."""

import asyncio
import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.clock import AsyncClock
from repro.runtime.interfaces import CancelHandle, Clock
from repro.runtime.transport import TcpTransport


def test_satisfies_the_seam_protocols():
    async def main():
        clock = AsyncClock(asyncio.get_running_loop())
        assert isinstance(clock, Clock)
        assert isinstance(clock.schedule(0.0, lambda: None), CancelHandle)

    asyncio.run(main())


def test_now_tracks_loop_time():
    async def main():
        loop = asyncio.get_running_loop()
        clock = AsyncClock(loop)
        before = clock.now
        await asyncio.sleep(0.02)
        assert clock.now >= before + 0.015
        assert clock.now == pytest.approx(loop.time(), abs=1e-3)

    asyncio.run(main())


def test_call_later_fires_with_and_without_arg():
    async def main():
        clock = AsyncClock(asyncio.get_running_loop())
        fired = []
        clock.call_later(0.0, fired.append, "arg")
        clock.call_later(0.0, lambda: fired.append("thunk"))
        clock.call_later(0.0, fired.append, None)  # None is a legal arg
        await asyncio.sleep(0.05)
        assert fired == ["arg", "thunk", None]

    asyncio.run(main())


def test_same_delay_fires_in_scheduling_order():
    # The ordering contract the coordinator's zero-delay completion
    # deliveries rely on — the simulator's (time, sequence) heap order.
    # Frozen inputs: scheduled under a clock coarser than the callbacks,
    # so every timer shares one fire time.  asyncio's own heap orders by
    # fire time alone and fired such zero-delay timers as
    # [0, 2, 6, 5, 7, 4, 1, 3]; the clock's heap breaks the tie by
    # sequence, for non-zero delays too.
    async def main(frozen, delay):
        loop = asyncio.get_running_loop()
        if frozen:
            now = loop.time()
            loop.time = lambda: now
        clock = AsyncClock(loop)
        fired = []
        for tag in range(8):
            clock.call_later(delay, fired.append, tag)
        if frozen:
            for _ in range(8):  # a timed sleep never ends on a frozen clock
                await asyncio.sleep(0)
            del loop.time  # thaw: the non-zero timers come due
        await asyncio.sleep(delay + 0.05)
        assert fired == list(range(8))

    for frozen, delay in ((False, 0.0), (True, 0.0), (True, 0.005)):
        asyncio.run(main(frozen, delay))


def test_schedule_returns_cancellable_handle():
    async def main():
        clock = AsyncClock(asyncio.get_running_loop())
        fired = []
        handle = clock.schedule(0.01, fired.append, "doomed")
        kept = clock.schedule(0.01, fired.append, "kept")
        assert handle.time == pytest.approx(clock.now + 0.01, abs=5e-3)
        handle.cancel()
        handle.cancel()  # double-cancel is a no-op
        await asyncio.sleep(0.05)
        assert fired == ["kept"]
        kept.cancel()  # cancel after fire is a no-op

    asyncio.run(main())


def test_negative_delay_rejected_like_the_simulator():
    async def main():
        clock = AsyncClock(asyncio.get_running_loop())
        with pytest.raises(ValueError, match="past"):
            clock.call_later(-0.1, lambda: None)
        with pytest.raises(ValueError, match="past"):
            clock.schedule(-0.1, lambda: None)

    asyncio.run(main())


def test_absolute_time_variants():
    async def main():
        clock = AsyncClock(asyncio.get_running_loop())
        fired = []
        clock.call_at(clock.now + 0.01, fired.append, "at")
        clock.schedule_at(clock.now + 0.01, fired.append, "sched_at")
        await asyncio.sleep(0.05)
        assert fired == ["at", "sched_at"]

    asyncio.run(main())


def test_building_outside_a_running_loop_raises():
    """Bound with ``get_event_loop()``, a transport built before
    ``asyncio.run`` kept a loop that never ran, and every timeout armed
    on its clock never fired."""
    idle = asyncio.new_event_loop()
    asyncio.set_event_loop(idle)  # current, but not running
    try:
        with pytest.raises(RuntimeError):
            AsyncClock()
        with pytest.raises(RuntimeError):
            TcpTransport()
    finally:
        asyncio.set_event_loop(None)
        idle.close()


# ---------------------------------------------------------------------
# the queue contract, on a loop whose time the test moves
# ---------------------------------------------------------------------


def run_on_manual_time(body):
    """Run ``body(loop, clock, advance)`` with ``loop.time`` frozen
    except when ``advance(seconds)`` moves it."""

    async def main():
        loop = asyncio.get_running_loop()
        now = [loop.time()]
        loop.time = lambda: now[0]

        async def advance(seconds):
            now[0] += seconds
            for _ in range(4):  # due timer + the drain it may schedule
                await asyncio.sleep(0)

        try:
            return await body(loop, AsyncClock(loop), advance)
        finally:
            del loop.time

    return asyncio.run(main())


#: One step: schedule with a delay of 0–3 ms (``call_later`` when the
#: flag is False, a handle from ``schedule`` when True), or cancel the
#: handle of an earlier step.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from([0.0, 0.001, 0.002, 0.003]),
                  st.booleans()),
        st.tuples(st.just("cancel"), st.integers(0, 63), st.just(False)),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(steps)
def test_what_fires_is_every_live_entry_in_time_then_sequence_order(ops):
    async def body(loop, clock, advance):
        fired, handles, expected = [], [], {}
        for index, (op, value, with_handle) in enumerate(ops):
            if op == "add":
                if with_handle:
                    handles.append(
                        (clock.schedule(value, fired.append, index), index)
                    )
                else:
                    clock.call_later(value, fired.append, index)
                expected[index] = value
            elif handles:
                handle, target = handles[value % len(handles)]
                handle.cancel()
                expected.pop(target, None)
        await advance(1.0)
        return fired, sorted(expected, key=lambda i: (expected[i], i))

    fired, expected = run_on_manual_time(body)
    assert fired == expected


def test_a_raising_callback_reaches_the_handler_and_its_batch_still_runs():
    async def body(loop, clock, advance):
        caught, fired = [], []
        loop.set_exception_handler(lambda loop, context: caught.append(context))

        def boom():
            raise RuntimeError("boom")

        for delay in (0.0, 0.002):  # the zero-delay drain, then a timer batch
            clock.call_later(delay, fired.append, (delay, 1))
            clock.call_later(delay, boom)
            clock.schedule(delay, fired.append, (delay, 2))
        await advance(1.0)
        return caught, fired

    caught, fired = run_on_manual_time(body)
    assert fired == [(0.0, 1), (0.0, 2), (0.002, 1), (0.002, 2)]
    assert [type(c["exception"]) for c in caught] == [RuntimeError] * 2


def test_cancel_releases_the_callback_and_its_arg():
    class Arg:
        pass

    async def body(loop, clock, advance):
        refs = []
        for delay in (0.0, 0.002):
            arg = Arg()
            refs.append(weakref.ref(arg))
            clock.schedule(delay, lambda a: None, arg).cancel()
            del arg
        gc.collect()
        alive = [ref() is not None for ref in refs]
        await advance(1.0)
        return alive

    assert run_on_manual_time(body) == [False, False]


def test_churn_holds_one_loop_timer_and_a_bounded_heap():
    """10 000 phase timeouts armed and cancelled around 128 live ones:
    one loop timer for the lot, and compaction keeps the heap at most
    about twice the live entries."""

    async def body(loop, clock, advance):
        live = [clock.schedule(2.0, lambda: None) for _ in range(128)]
        for cycle in range(10_000):
            live.pop(0).cancel()
            live.append(clock.schedule(2.0, lambda: None))
            if cycle % 1000 == 0:
                await advance(0.0001)  # let the loop run now and then
        timers = [h for h in loop._scheduled if not h.cancelled()]
        return len(timers), len(clock._queue)

    timers, held = run_on_manual_time(body)
    assert timers == 1
    assert held <= 2 * 128


def test_keyboard_interrupt_propagates_and_the_rest_of_its_batch_waits():
    """What a propagating exception's batch had not run yet stays queued
    and fires on the loop's next iteration, timers and zero-delay alike."""
    loop = asyncio.new_event_loop()
    try:
        clock = AsyncClock(loop)
        fired = []

        def interrupt():
            raise KeyboardInterrupt

        for delay in (0.0, 0.001):
            clock.call_later(delay, fired.append, (delay, 1))
            clock.call_later(delay, interrupt)
            clock.call_later(delay, fired.append, (delay, 2))
        with pytest.raises(KeyboardInterrupt):
            loop.run_until_complete(asyncio.sleep(0.05))
        with pytest.raises(KeyboardInterrupt):
            loop.run_until_complete(asyncio.sleep(0.05))
        loop.run_until_complete(asyncio.sleep(0.05))
        assert fired == [(0.0, 1), (0.0, 2), (0.001, 1), (0.001, 2)]
    finally:
        loop.close()
