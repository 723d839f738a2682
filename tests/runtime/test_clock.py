"""AsyncClock: the wall-clock side of the transport seam."""

import asyncio

import pytest

from repro.runtime.clock import AsyncClock
from repro.runtime.interfaces import CancelHandle, Clock


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
    # deliveries rely on — asyncio's ready queue is FIFO, like the
    # simulator's (time, sequence) heap order.  Second input: a frozen
    # clock, coarser than the callbacks, under which zero-delay timers
    # shared one fire time and the loop's heap fired them as
    # [0, 2, 6, 5, 7, 4, 1, 3].
    async def main(frozen):
        loop = asyncio.get_running_loop()
        if frozen:
            now = loop.time()
            loop.time = lambda: now
        clock = AsyncClock(loop)
        fired = []
        for tag in range(8):
            clock.call_later(0.0, fired.append, tag)
        if frozen:
            for _ in range(8):  # a timed sleep never ends on a frozen clock
                await asyncio.sleep(0)
        else:
            await asyncio.sleep(0.05)
        assert fired == list(range(8))

    for frozen in (False, True):
        asyncio.run(main(frozen))


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
