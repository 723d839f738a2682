"""What the simulator keeps per operation, and what a finished run frees.

A queued operation holds its context and one lock request, read outcomes
share one empty version quorum, and a finished run's outcomes go with
the last reference to its monitor, by reference counting.
"""

import functools
import gc
import weakref

from repro.core.builder import from_spec
from repro.quorums import selection
from repro.quorums.selection import EMPTY_QUORUM
from repro.sim.engine import (
    SimulationConfig,
    build_simulation,
    run_workload,
    simulate,
)
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


class TestAFinishedRunFreesItself:
    def test_a_dropped_result_frees_its_outcomes(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            result = simulate(_saturated())
            monitor = weakref.ref(result.monitor)
            assert len(result.monitor.outcomes) == 500
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
            outcomes = simulate(_saturated(**overrides)).monitor.outcomes
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
