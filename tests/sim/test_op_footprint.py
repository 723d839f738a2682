"""What the simulator keeps per operation, and what a finished run frees.

A queued operation is one lock request (its context is built when the
lock is granted) and reference counting frees it, read outcomes share
one empty version quorum, a finished run keeps its measurements
(counters and latency samples) and no outcome, and its monitor goes with
the last reference to it, by reference counting.
"""

import functools
import gc
import hashlib
import math
import pickle
import tracemalloc
import weakref

import pytest

from repro.core.builder import from_spec
from repro.obs.spans import SpanKind
from repro.quorums import selection
from repro.quorums.selection import EMPTY_QUORUM
from repro.sim.coordinator import _OpContext, _QueuedOp
from repro.sim.engine import (
    SimulationConfig,
    SimulationResult,
    build_simulation,
    run_workload,
    simulate,
)
from repro.sim.locks import LockMode
from repro.sim.workload import WorkloadSpec

from tests.sim.test_coordinator import Rig


def _saturated(operations: int = 500, **overrides) -> SimulationConfig:
    """A small ``sim-saturated``: Poisson arrivals outrun service on a
    Zipf-skewed key space, so operations queue for their locks."""
    return SimulationConfig(
        tree=from_spec("1-3-5"),
        workload=WorkloadSpec(
            operations=operations, read_fraction=0.9, keys=128,
            arrival="poisson", rate=4.0, zipf_s=1.1,
        ),
        clients=4, service_time=1.0, timeout=800.0, seed=7, **overrides,
    )


def _held_bytes(operations: int) -> tuple[int, SimulationResult]:
    """Bytes a finished ``SimulationResult`` still holds (``tracemalloc``,
    after a collection), and the result."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = simulate(_saturated(operations))
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, result
    finally:
        if started:
            tracemalloc.stop()


class TestAFinishedRunKeepsItsMeasurementsOnly:
    """The summary reads aggregates only; an outcome kept per operation
    (about 240 B held, 94 B pickled back per ``--jobs`` repeat) bought
    nothing."""

    def test_a_result_holds_at_most_64_bytes_per_extra_operation(self):
        small, _ = _held_bytes(2_000)
        large, result = _held_bytes(6_000)
        assert result.monitor.total_operations == 6_000
        assert (large - small) / 4_000 <= 64

    def test_a_pickled_monitor_grows_at_most_16_bytes_per_extra_operation(
        self,
    ):
        small = len(pickle.dumps(simulate(_saturated(2_000)).monitor))
        large = len(pickle.dumps(simulate(_saturated(6_000)).monitor))
        assert (large - small) / 4_000 <= 16

    def test_only_a_reshaped_run_keeps_its_read_spans(self):
        assert simulate(_saturated()).read_spans == []
        outcomes = []
        result = simulate(
            _saturated(reshape_at=20.0, reshape_spec="1-4-4"),
            on_outcome=outcomes.append,
        )
        assert result.reconfiguration is not None
        assert result.read_spans and result.read_spans == [
            (o.started_at, o.finished_at, o.success)
            for o in outcomes if o.op_type == "read"
        ]


class TestAFinishedRunFreesItself:
    def test_a_dropped_result_frees_its_outcomes(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            result = simulate(_saturated())
            monitor = weakref.ref(result.monitor)
            assert result.monitor.total_operations == 500
            del result
            assert monitor() is None
        finally:
            if enabled:
                gc.enable()

    def test_the_workload_releases_its_sink_at_completion(self):
        # The workload, coordinators, sites and network outlive the run
        # in reference cycles; none of them may still reach the monitor.
        scheduler, workload, monitor, network, sites = build_simulation(
            _saturated(200, check_invariants=True)
        )
        run_workload(scheduler, workload, max_events=1_000_000)
        assert workload.completed == 200
        watched = weakref.ref(monitor)
        del monitor
        assert watched() is None
        assert workload.coordinators  # the run's objects are still held


class TestReadsShareOneEmptyQuorum:
    def test_every_read_outcome_holds_the_same_empty_version_quorum(self):
        for overrides in ({}, {"leases": True}):
            outcomes = []
            simulate(_saturated(**overrides), on_outcome=outcomes.append)
            reads = [o for o in outcomes if o.op_type == "read"]
            assert reads
            assert {id(o.version_quorum) for o in reads} == {id(EMPTY_QUORUM)}

    def test_choose_without_suspects_allocates_no_frozenset(self, monkeypatch):
        rig = Rig()
        chooser = rig.coordinator._chooser
        chooser.choose("read")  # materialise the index's rows first
        calls = []

        def counting_frozenset(*args):
            calls.append(args)
            return frozenset(*args)

        monkeypatch.setattr(
            selection, "frozenset", counting_frozenset, raising=False
        )
        for op in ("read", "write") * 50:
            assert chooser.choose(op)
        assert calls == []


class TestQueuedOperationsHoldOneCallable:
    def test_requests_queued_behind_a_writer_share_the_callback(
        self, monkeypatch
    ):
        rig = Rig()
        requests = []
        acquire = rig.locks.acquire

        def recording_acquire(txid, key, mode, callback, arg=True):
            requests.append((callback, arg))
            acquire(txid, key, mode, callback, arg)

        monkeypatch.setattr(rig.locks, "acquire", recording_acquire)
        rig.coordinator.write("k", "v", rig.outcomes.append)
        for _ in range(4):
            rig.coordinator.read("k", rig.outcomes.append)
        assert rig.locks.queue_length("k") == 4
        callbacks = {id(callback) for callback, _ in requests}
        assert len(callbacks) == 1
        assert not any(
            isinstance(callback, functools.partial) for callback, _ in requests
        )
        assert len({id(ctx) for _, ctx in requests}) == 5
        rig.scheduler.run()
        assert [o.op_type for o in rig.outcomes] == ["write"] + ["read"] * 4
        assert all(o.success and o.value == "v" for o in rig.outcomes)


def _count(cls) -> int:
    """Live instances of ``cls`` the collector tracks."""
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


def _held_behind_a_writer(rig: Rig) -> None:
    """Hold ``k``'s exclusive lock under a txid the coordinator never draws."""
    rig.locks.acquire(10**9, "k", LockMode.EXCLUSIVE, lambda granted: None)
    rig.scheduler.run()


def _waiting_bytes(op: str, operations: int = 5_000) -> float:
    """``tracemalloc`` bytes per operation queued behind a held exclusive
    lock, each submitted at its own simulated time (so each keeps a
    start time of its own, as in a run)."""
    rig = Rig()
    _held_behind_a_writer(rig)
    done = rig.outcomes.append
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(operations):
            rig.scheduler.run(until=1.0 + i)
            if op == "read":
                rig.coordinator.read("k", done)
            else:
                rig.coordinator.write("k", f"v{i}", done)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert rig.locks.queue_length("k") == operations
    return held / operations


class TestAQueuedOperationIsOneRequest:
    """An operation waiting for its lock holds what it was submitted with,
    in one object; its ``_OpContext`` is built at the grant."""

    def test_a_waiting_read_holds_at_most_200_bytes(self):
        assert _waiting_bytes("read") <= 200

    def test_a_waiting_write_holds_at_most_240_bytes(self):
        assert _waiting_bytes("write") <= 240

    def test_no_context_exists_before_the_grant(self):
        rig = Rig()
        rig.write("k", "v0")
        _held_behind_a_writer(rig)
        gc.collect()
        contexts = _count(_OpContext)
        for _ in range(3):
            rig.coordinator.read("k", rig.outcomes.append)
            rig.coordinator.write("k", "v1", rig.outcomes.append)
            rig.coordinator.copy_key("k", rig.outcomes.append)
        assert rig.locks.queue_length("k") == 9
        assert _count(_OpContext) == contexts
        assert _count(_QueuedOp) == 9
        rig.locks.release(10**9, "k")
        rig.scheduler.run()
        assert [o.op_type for o in rig.outcomes[1:]] == (
            ["read", "write", "write"] * 3
        )
        assert all(o.success for o in rig.outcomes)
        assert rig.outcomes[-1].value == "v1"


class TestQueuedRequestsAreFreedByReferenceCounting:
    @pytest.mark.parametrize("trace", [False, True])
    def test_no_request_outlives_its_grant_without_a_collection(self, trace):
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = _count(_QueuedOp)
            scheduler, workload, monitor, network, sites = build_simulation(
                _saturated(trace=trace)
            )
            run_workload(scheduler, workload, max_events=1_000_000)
            assert workload.completed == 500
            locks = workload.coordinators[0].locks
            assert locks.stats.granted_after_wait > 100
            assert _count(_QueuedOp) == before
        finally:
            if enabled:
                gc.enable()


def _digest(values) -> str:
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]


class TestATracedRunWaitsAsBefore:
    """Taking a queued operation's lock-wait span and enqueue time out of
    its request changes no recorded wait.  The figures are those of the
    code that kept both on the request: count, ``math.fsum`` and a digest
    of ``repr`` of the values in recording order."""

    def test_lock_wait_spans_and_lock_observations_are_unchanged(self):
        recorder = simulate(_saturated(trace=True)).monitor.recorder
        waits = [
            span.end - span.start for span in recorder.spans.values()
            if span.kind is SpanKind.LOCK_WAIT
        ]
        assert len(waits) == 500
        assert sum(1 for wait in waits if wait > 0) == 239
        assert math.fsum(waits) == 19376.835354930576
        assert _digest(waits) == "f0a614b173604adb"
        observed = recorder.metrics["lock.wait"]
        assert len(observed) == 500
        assert math.fsum(observed) == 19376.835354930576
        assert _digest(observed) == "988d722e256bf673"
        held = recorder.metrics["lock.hold"]
        assert len(held) == 500
        assert math.fsum(held) == 5893.276820666328
        assert _digest(held) == "df0d645d314f9899"
