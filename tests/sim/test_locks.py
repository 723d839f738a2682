"""Unit tests for the centralised lock manager."""

import pytest

from repro.sim.events import Scheduler
from repro.sim.locks import LockManager, LockMode


@pytest.fixture
def rig():
    scheduler = Scheduler()
    return scheduler, LockManager(scheduler)


def grant_recorder(results: list, tag):
    return lambda granted: results.append((tag, granted))


class TestBasicGrants:
    def test_free_lock_granted(self, rig):
        scheduler, locks = rig
        results = []
        locks.acquire(1, "k", LockMode.EXCLUSIVE, grant_recorder(results, "a"))
        scheduler.run()
        assert results == [("a", True)]
        assert locks.holders("k") == {1: LockMode.EXCLUSIVE}

    def test_shared_locks_coexist(self, rig):
        scheduler, locks = rig
        results = []
        locks.acquire(1, "k", LockMode.SHARED, grant_recorder(results, "a"))
        locks.acquire(2, "k", LockMode.SHARED, grant_recorder(results, "b"))
        scheduler.run()
        assert results == [("a", True), ("b", True)]
        assert len(locks.holders("k")) == 2

    def test_exclusive_blocks_shared(self, rig):
        scheduler, locks = rig
        results = []
        locks.acquire(1, "k", LockMode.EXCLUSIVE, grant_recorder(results, "a"))
        locks.acquire(2, "k", LockMode.SHARED, grant_recorder(results, "b"))
        scheduler.run()
        assert results == [("a", True)]
        assert locks.queue_length("k") == 1

    def test_shared_blocks_exclusive(self, rig):
        scheduler, locks = rig
        results = []
        locks.acquire(1, "k", LockMode.SHARED, grant_recorder(results, "a"))
        locks.acquire(2, "k", LockMode.EXCLUSIVE, grant_recorder(results, "b"))
        scheduler.run()
        assert results == [("a", True)]

    def test_distinct_keys_independent(self, rig):
        scheduler, locks = rig
        results = []
        locks.acquire(1, "k1", LockMode.EXCLUSIVE, grant_recorder(results, "a"))
        locks.acquire(2, "k2", LockMode.EXCLUSIVE, grant_recorder(results, "b"))
        scheduler.run()
        assert sorted(results) == [("a", True), ("b", True)]


class TestQueueing:
    def test_release_grants_next_in_fifo_order(self, rig):
        scheduler, locks = rig
        results = []
        locks.acquire(1, "k", LockMode.EXCLUSIVE, grant_recorder(results, "a"))
        locks.acquire(2, "k", LockMode.EXCLUSIVE, grant_recorder(results, "b"))
        locks.acquire(3, "k", LockMode.EXCLUSIVE, grant_recorder(results, "c"))
        scheduler.run()
        locks.release(1, "k")
        scheduler.run()
        assert results == [("a", True), ("b", True)]
        locks.release(2, "k")
        scheduler.run()
        assert results[-1] == ("c", True)

    def test_release_grants_shared_batch(self, rig):
        scheduler, locks = rig
        results = []
        locks.acquire(1, "k", LockMode.EXCLUSIVE, grant_recorder(results, "a"))
        locks.acquire(2, "k", LockMode.SHARED, grant_recorder(results, "b"))
        locks.acquire(3, "k", LockMode.SHARED, grant_recorder(results, "c"))
        scheduler.run()
        locks.release(1, "k")
        scheduler.run()
        assert ("b", True) in results and ("c", True) in results

    def test_exclusive_grant_stops_batch(self, rig):
        scheduler, locks = rig
        results = []
        locks.acquire(1, "k", LockMode.EXCLUSIVE, grant_recorder(results, "a"))
        locks.acquire(2, "k", LockMode.EXCLUSIVE, grant_recorder(results, "b"))
        locks.acquire(3, "k", LockMode.SHARED, grant_recorder(results, "c"))
        scheduler.run()
        locks.release(1, "k")
        scheduler.run()
        assert ("b", True) in results
        assert all(tag != "c" for tag, _ in results)

    def test_release_of_unheld_lock_is_noop(self, rig):
        _scheduler, locks = rig
        locks.release(1, "nothing")  # must not raise


class TestStats:
    def test_counters(self, rig):
        scheduler, locks = rig
        results = []
        locks.acquire(1, "k", LockMode.EXCLUSIVE, grant_recorder(results, "a"))
        locks.acquire(2, "k", LockMode.EXCLUSIVE, grant_recorder(results, "b"))
        scheduler.run()
        locks.release(1, "k")
        scheduler.run()
        assert locks.stats.granted_immediately == 1
        assert locks.stats.granted_after_wait == 1
        assert locks.stats.releases == 1
        assert locks.stats.granted == 2


class TestCallbackArgument:
    def test_an_immediate_grant_fires_callback_with_arg(self, rig):
        scheduler, locks = rig
        results = []
        locks.acquire(1, "k", LockMode.SHARED, results.append, "ctx-1")
        scheduler.run()
        assert results == ["ctx-1"]

    def test_a_grant_after_waiting_fires_callback_with_arg(self, rig):
        scheduler, locks = rig
        results = []
        locks.acquire(1, "k", LockMode.EXCLUSIVE, results.append, "ctx-1")
        locks.acquire(2, "k", LockMode.SHARED, results.append, "ctx-2")
        locks.acquire(3, "k", LockMode.SHARED, results.append, "ctx-3")
        scheduler.run()
        assert results == ["ctx-1"]
        locks.release(1, "k")
        scheduler.run()
        assert results == ["ctx-1", "ctx-2", "ctx-3"]
