"""AsyncClock: the wall-clock side of the transport seam."""

import asyncio
import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.clock import AsyncClock
from repro.runtime.interfaces import CancelHandle, Clock
from repro.runtime.loop import SelectorLoop
from repro.runtime.transport import TcpTransport
from repro.sim.events import Scheduler
from repro.sim.outcome import OperationOutcome
from repro.sim.workload import Workload, WorkloadSpec
from tests.runtime.test_connection import run_counting
from tests.runtime.test_loop import spin


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


# ---------------------------------------------------------------------
# call_at, on asyncio's loop and on a site's SelectorLoop
# ---------------------------------------------------------------------

both_loops = pytest.mark.parametrize(
    "make_loop", [asyncio.new_event_loop, SelectorLoop],
    ids=["asyncio", "selector"],
)


def on_frozen_time(loop, body):
    """Run ``body(clock, advance)`` with ``loop.time`` frozen except
    when ``advance(seconds)`` moves it and runs the loop a few
    iterations (the due timer and the drain it may schedule)."""
    now = [loop.time()]
    loop.time = lambda: now[0]

    def advance(seconds):
        now[0] += seconds
        for _ in range(4):
            if isinstance(loop, SelectorLoop):
                loop.call_soon(lambda: None)  # an iteration that never sleeps
                loop._run_once()
            else:
                loop.run_until_complete(asyncio.sleep(0))

    try:
        body(AsyncClock(loop), advance)
    finally:
        del loop.time
        if not isinstance(loop, SelectorLoop):
            loop.close()


@both_loops
def test_call_at_fires_at_its_deadline_and_never_before_the_horizon(make_loop):
    loop = make_loop()
    clock = AsyncClock(loop)
    fired = []
    deadline = clock.now + 0.02
    clock.call_at(deadline, lambda: fired.append(loop.time()))
    clock.call_at(deadline, fired.append, "arg")
    try:
        spin(loop, lambda: len(fired) == 2)
    finally:
        if not isinstance(loop, SelectorLoop):
            loop.close()
    assert fired[0] + clock._resolution >= deadline
    assert fired[1] == "arg"


@both_loops
def test_call_at_and_call_later_at_one_deadline_fire_in_scheduling_order(
    make_loop,
):
    def body(clock, advance):
        fired = []
        deadline = clock.now + 0.01
        for tag in range(6):
            if tag % 2:
                clock.call_at(deadline, fired.append, tag)
            else:
                clock.call_later(0.01, fired.append, tag)
        advance(0.005)
        assert fired == []  # not before the deadline
        advance(0.005)
        assert fired == list(range(6))

    on_frozen_time(make_loop(), body)


@both_loops
def test_a_past_deadline_raises_like_the_simulators(make_loop):
    """Before any timer the present is the clock's creation; inside a
    timer it is that timer's deadline, so one the loop ran a second late
    may still chain deadlines off its own (they fire in the same pass)
    but not before it."""
    with pytest.raises(ValueError, match="past"):
        Scheduler().call_at(-1.0, lambda: None)

    def body(clock, advance):
        with pytest.raises(ValueError, match="past"):
            clock.call_at(clock.now - 1.0, lambda: None)
        fired, refused = [], []
        deadline = clock.now + 0.01

        def late():
            fired.append("late")
            clock.call_at(deadline + 0.001, fired.append, "chained")
            try:
                clock.call_at(deadline - 0.001, fired.append, "past")
            except ValueError:
                refused.append(deadline - 0.001)

        clock.call_at(deadline, late)
        advance(1.0)
        assert fired == ["late", "chained"]
        assert refused == [deadline - 0.001]
        with pytest.raises(ValueError, match="past"):
            clock.call_at(deadline, lambda: None)

    on_frozen_time(make_loop(), body)


def test_a_poisson_workload_on_the_clock_completes_every_operation():
    """The simulator's ``Workload`` arms its arrivals with ``call_at`` at
    absolute times accumulated from the clock's ``now`` at ``start``; on
    a wall clock an arrival the loop ran late still chains the next one
    off its own deadline, so none is refused and none is lost."""

    class Coordinator:
        def __init__(self, clock):
            self.clock = clock
            self.issued_at = []

        def read(self, key, done):
            self.issued_at.append(self.clock.now)
            now = self.clock.now
            self.clock.call_later(0.0, done, OperationOutcome(
                op_type="read", key=key, success=True,
                started_at=now, finished_at=now,
            ))

        write = lambda self, key, value, done: self.read(key, done)  # noqa: E731

    async def main():
        clock = AsyncClock()
        coordinator = Coordinator(clock)
        outcomes = []
        workload = Workload(
            spec=WorkloadSpec(
                operations=300, arrival="poisson", rate=3000.0, keys=4
            ),
            coordinator=[coordinator],
            clock=clock,
            rng=random.Random(5),
            on_outcome=outcomes.append,
        )
        finished = asyncio.get_running_loop().create_future()
        workload.add_on_complete(lambda: finished.set_result(None))
        started = clock.now
        workload.start()
        await asyncio.wait_for(finished, 30.0)
        return started, workload, coordinator.issued_at, outcomes

    started, workload, issued_at, outcomes = asyncio.run(main())
    assert workload.issued == workload.completed == len(outcomes) == 300
    assert started <= issued_at[0]
    assert issued_at == sorted(issued_at)


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


# ---------------------------------------------------------------------
# idle callbacks
# ---------------------------------------------------------------------


def test_the_idle_check_reads_the_loops_ready_queue():
    """``call_when_idle`` asks the loop's private ready queue whether
    anything else is runnable; this pins that the running loop has one
    and that it holds exactly the callbacks still to run."""

    async def main():
        loop = asyncio.get_running_loop()
        clock = AsyncClock(loop)
        assert clock._loop_ready is loop._ready
        seen = []
        loop.call_soon(lambda: seen.append(len(loop._ready)))
        loop.call_soon(lambda: seen.append(len(loop._ready)))
        await asyncio.sleep(0.01)
        return seen

    assert asyncio.run(main()) == [1, 0]


def test_a_loop_without_a_ready_queue_runs_idle_callbacks_at_once():
    """The fallback: a loop that does not expose ``_ready`` counts as
    idle, so an idle callback waits one iteration however busy it is."""

    class Opaque:
        """The running loop with its ready queue hidden."""

        def __init__(self, loop):
            self._inner = loop

        def __getattr__(self, name):
            if name == "_ready":
                raise AttributeError(name)
            return getattr(self._inner, name)

    async def main():
        loop = asyncio.get_running_loop()
        clock = AsyncClock(Opaque(loop))
        fired = []
        clock.call_when_idle(lambda: fired.append(len(spins)))
        spins = []
        while not fired:
            spins.append(None)
            await asyncio.sleep(0)
        return fired

    assert asyncio.run(main()) == [1]


def test_a_raising_idle_callback_reaches_the_handler_and_the_rest_runs():
    async def main():
        loop = asyncio.get_running_loop()
        caught, fired = [], []
        loop.set_exception_handler(lambda loop, context: caught.append(context))
        clock = AsyncClock(loop)

        def boom():
            raise RuntimeError("boom")

        clock.call_when_idle(lambda: fired.append(1))
        clock.call_when_idle(boom)
        clock.call_when_idle(lambda: fired.append(2))
        await asyncio.sleep(0.01)
        return caught, fired

    caught, fired = asyncio.run(main())
    assert fired == [1, 2]
    assert [type(c["exception"]) for c in caught] == [RuntimeError]


def test_two_clocks_on_one_idle_loop_both_run_on_the_next_iteration():
    """In-process site servers beside a coordinator's transport put two
    clocks on one loop.  Each clock's pending idle check once counted as
    runnable work to the other, so on an idle loop both batches waited
    the whole cap; the loop's clocks share one batch instead."""

    async def main(loop):
        first, second = AsyncClock(loop), AsyncClock(loop)
        ran = []
        await asyncio.sleep(0.01)
        queued_at = loop.iteration
        first.call_when_idle(lambda: ran.append(("first", loop.iteration)))
        second.call_when_idle(lambda: ran.append(("second", loop.iteration)))
        await asyncio.sleep(0.01)
        return ran, queued_at

    ran, queued_at = run_counting(main)
    assert ran == [("first", queued_at + 1), ("second", queued_at + 1)]


def test_a_loops_idle_batch_goes_with_the_loop():
    """The shared batch is found by loop, weakly: each ``asyncio.run``
    gets a fresh one, and nothing outlives its loop."""

    async def batch():
        return AsyncClock(asyncio.get_running_loop())._idle

    loops = []

    async def remember():
        loops.append(weakref.ref(asyncio.get_running_loop()))
        return await batch()

    assert asyncio.run(remember()) is not asyncio.run(batch())
    gc.collect()
    assert loops[0]() is None
