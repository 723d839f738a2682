"""Unit tests for workload generation and the measurement monitor."""

import math

import pytest

from repro.core.builder import from_spec
from repro.sim.coordinator import FailureReason, OperationOutcome
from repro.sim.engine import SimulationConfig, build_simulation
from repro.sim.monitor import Monitor
from repro.sim.workload import WorkloadSpec


class TestWorkloadSpec:
    def test_defaults_valid(self):
        WorkloadSpec()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"operations": -1},
            {"read_fraction": 1.5},
            {"keys": 0},
            {"arrival": "burst"},
            {"arrival": "poisson", "rate": 0.0},
            {"zipf_s": -1.0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadSpec(**kwargs)


def _run_workload(spec: WorkloadSpec, seed: int = 0, on_outcome=None):
    config = SimulationConfig(tree=from_spec("1-3-5"), workload=spec, seed=seed)
    scheduler, workload, monitor, network, sites = build_simulation(
        config, on_outcome=on_outcome
    )
    workload.start()
    while workload.completed < spec.operations:
        assert scheduler.step(), "stalled"
    return workload, monitor


class TestWorkloadExecution:
    def test_closed_loop_completes_all_ops(self):
        workload, monitor = _run_workload(WorkloadSpec(operations=50))
        assert workload.issued == 50
        assert workload.completed == 50
        assert monitor.total_operations == 50

    def test_poisson_completes_all_ops(self):
        workload, monitor = _run_workload(
            WorkloadSpec(operations=50, arrival="poisson", rate=0.5)
        )
        assert monitor.total_operations == 50

    def test_read_fraction_respected(self):
        _workload, monitor = _run_workload(
            WorkloadSpec(operations=600, read_fraction=0.75)
        )
        fraction = monitor.reads.attempted / 600
        assert fraction == pytest.approx(0.75, abs=0.06)

    def test_pure_read_workload(self):
        _workload, monitor = _run_workload(
            WorkloadSpec(operations=40, read_fraction=1.0)
        )
        assert monitor.writes.attempted == 0

    def test_zero_operations_complete_immediately(self):
        config = SimulationConfig(
            tree=from_spec("1-3-5"), workload=WorkloadSpec(operations=0)
        )
        scheduler, workload, monitor, *_ = build_simulation(config)
        finished = []
        workload._on_complete = lambda: finished.append(True)
        workload.start()
        assert finished == [True]

    def test_completion_hook_fires_once_after_the_last_outcome(self):
        config = SimulationConfig(
            tree=from_spec("1-3-5"), workload=WorkloadSpec(operations=5)
        )
        scheduler, workload, *_ = build_simulation(config)
        fired = []
        workload.add_on_complete(lambda: fired.append(workload.completed))
        workload.start()
        while scheduler.step():
            pass
        assert fired == [5]

    def test_zipf_skews_keys(self):
        outcomes = []
        _run_workload(
            WorkloadSpec(operations=400, keys=8, zipf_s=1.5, read_fraction=1.0),
            on_outcome=outcomes.append,
        )
        counts = {}
        for outcome in outcomes:
            counts[outcome.key] = counts.get(outcome.key, 0) + 1
        assert counts.get("k0", 0) > counts.get("k7", 0)


def _outcome(op_type="read", success=True, quorum=(0, 3), latency=2.0,
             reason=FailureReason.NONE, attempts=1):
    return OperationOutcome(
        op_type=op_type, key="k", success=success,
        quorum=frozenset(quorum), attempts=attempts,
        started_at=0.0, finished_at=latency,
        reason=reason if not success else FailureReason.NONE,
    )


class TestMonitor:
    def test_availability_fractions(self):
        monitor = Monitor(replica_ids=tuple(range(8)))
        monitor.record(_outcome(success=True))
        monitor.record(_outcome(success=False, reason=FailureReason.UNAVAILABLE))
        assert monitor.reads.availability == pytest.approx(0.5)
        assert math.isnan(monitor.writes.availability)

    def test_mean_cost(self):
        monitor = Monitor(replica_ids=tuple(range(8)))
        monitor.record(_outcome(quorum=(0, 3)))
        monitor.record(_outcome(quorum=(1, 4, 5)))
        assert monitor.reads.mean_cost == pytest.approx(2.5)

    def test_measured_load_is_max_over_replicas(self):
        monitor = Monitor(replica_ids=tuple(range(8)))
        monitor.record(_outcome(quorum=(0, 3)))
        monitor.record(_outcome(quorum=(0, 4)))
        monitor.record(_outcome(quorum=(1, 5)))
        assert monitor.measured_read_load() == pytest.approx(2 / 3)
        loads = monitor.per_replica_read_load()
        assert loads[0] == pytest.approx(2 / 3)
        assert loads[7] == 0.0

    def test_write_load_tracked_separately(self):
        monitor = Monitor(replica_ids=tuple(range(8)))
        monitor.record(_outcome(op_type="write", quorum=(0, 1, 2)))
        assert monitor.measured_write_load() == pytest.approx(1.0)
        assert math.isnan(monitor.measured_read_load())

    def test_failure_reasons_counted(self):
        monitor = Monitor(replica_ids=tuple(range(8)))
        monitor.record(_outcome(success=False, reason=FailureReason.TIMEOUT))
        monitor.record(_outcome(success=False, reason=FailureReason.TIMEOUT))
        assert monitor.reads.failure_reasons["quorum-timeout"] == 2

    def test_latency_percentiles(self):
        monitor = Monitor(replica_ids=tuple(range(8)))
        for latency in (1.0, 2.0, 3.0, 4.0, 10.0):
            monitor.record(_outcome(latency=latency))
        assert monitor.reads.latency_percentile(0.5) == 3.0
        assert monitor.reads.mean_latency == pytest.approx(4.0)

    def test_the_median_of_five_samples_interpolates(self):
        """Moved from the deleted ``TrafficReport`` (the TCP cluster now
        reports through this monitor): a nearest-rank ``round()``
        percentile put the p50 of five samples at the second one
        (banker's rounding of 2.5); ``linear_percentile`` does not."""
        monitor = Monitor(replica_ids=tuple(range(8)))
        for latency in (0.005, 0.001, 0.004, 0.002, 0.003):
            monitor.record(_outcome(latency=latency))
        for latency in (0.001, 0.002):
            monitor.record(_outcome(op_type="write", latency=latency))
        assert monitor.reads.latency_percentile(0.5) == 0.003
        assert monitor.writes.latency_percentile(0.5) == 0.0015
        assert monitor.writes.latency_percentile(0.99) == pytest.approx(0.00199)

    def test_empty_percentile_is_nan(self):
        monitor = Monitor(replica_ids=(0,))
        assert math.isnan(monitor.reads.latency_percentile(0.5))

    def test_summary_keys(self):
        monitor = Monitor(replica_ids=tuple(range(8)))
        monitor.record(_outcome())
        summary = monitor.summary()
        for key in ("reads", "read_availability", "read_cost", "read_load"):
            assert key in summary
