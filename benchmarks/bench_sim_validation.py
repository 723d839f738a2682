"""End-to-end simulator validation against the closed forms.

Runs the full discrete-event stack (sites, network, locks, 2PC, workload)
over the paper's 1-3-5 example and an Algorithm-1-style tree and checks
that the *measured* quantities land on the analytical predictions:

* failure-free: measured read/write cost and per-replica load match
  ``RD_cost``, ``WR_cost``, ``L_RD``, ``L_WR``;
* Bernoulli failures, single-attempt operations, open-loop arrivals:
  measured success rates match ``RD_availability(p)`` / ``WR_availability(p)``.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import format_table
from repro.core import analyse, from_spec, sqrt_levels
from repro.sim import BernoulliFailures, SimulationConfig, WorkloadSpec, simulate

P = 0.7


@pytest.fixture(scope="module")
def failure_free():
    tree = from_spec("1-3-5")
    config = SimulationConfig(
        tree=tree,
        workload=WorkloadSpec(operations=4000, read_fraction=0.5, keys=16),
        seed=11,
    )
    return tree, simulate(config)


@pytest.fixture(scope="module")
def with_failures():
    tree = from_spec("1-3-5")
    config = SimulationConfig(
        tree=tree,
        workload=WorkloadSpec(
            operations=8000, read_fraction=0.5, keys=64,
            arrival="poisson", rate=0.25,
        ),
        failures=BernoulliFailures(p=P, seed=7, resample_every=40.0),
        max_attempts=1,
        timeout=8.0,
        seed=1,
    )
    return tree, simulate(config)


def test_failure_free_costs_and_loads(failure_free, emit, benchmark):
    tree, result = failure_free
    metrics = analyse(tree, p=1.0)
    summary = result.summary()
    rows = [
        ["read cost", round(summary["read_cost"], 3), metrics.read_cost],
        ["write cost", round(summary["write_cost"], 3),
         round(metrics.write_cost_avg, 3)],
        ["read load", round(summary["read_load"], 3),
         round(metrics.read_load, 3)],
        ["write load", round(summary["write_load"], 3),
         round(metrics.write_load, 3)],
    ]
    emit(
        "sim_failure_free",
        format_table(
            ["quantity", "simulated", "closed form"],
            rows,
            title="Simulator vs analysis, failure-free 1-3-5 tree",
        ),
    )
    assert summary["read_availability"] == 1.0
    assert summary["write_availability"] == 1.0
    assert summary["read_cost"] == pytest.approx(metrics.read_cost, rel=0.01)
    assert summary["write_cost"] == pytest.approx(metrics.write_cost_avg, rel=0.05)
    # measured max per-replica load converges to the optimal strategy load
    assert summary["read_load"] == pytest.approx(metrics.read_load, rel=0.12)
    assert summary["write_load"] == pytest.approx(metrics.write_load, rel=0.12)
    benchmark(lambda: analyse(tree, p=1.0))


def test_measured_availability_matches_formulas(with_failures, emit, benchmark):
    tree, result = with_failures
    metrics = analyse(tree, p=P)
    summary = result.summary()
    emit(
        "sim_availability",
        format_table(
            ["quantity", "simulated", "closed form"],
            [
                ["read availability", round(summary["read_availability"], 3),
                 round(metrics.read_availability, 3)],
                ["write availability", round(summary["write_availability"], 3),
                 round(metrics.write_availability, 3)],
            ],
            title=f"Simulator vs analysis under Bernoulli failures (p = {P})",
        ),
    )
    assert summary["read_availability"] == pytest.approx(
        metrics.read_availability, abs=0.03
    )
    assert summary["write_availability"] == pytest.approx(
        metrics.write_availability, abs=0.05
    )
    benchmark(lambda: analyse(tree, p=P))


def test_simulation_throughput(benchmark):
    """Time a complete mid-size simulation (the harness's own speed)."""
    tree = sqrt_levels(36)

    def run():
        config = SimulationConfig(
            tree=tree,
            workload=WorkloadSpec(operations=300, read_fraction=0.5, keys=8),
            seed=3,
        )
        return simulate(config).monitor.total_operations

    assert benchmark(run) == 300


def test_one_copy_equivalence_under_failures(benchmark):
    """Every successful read returns the latest successfully written value."""
    tree = from_spec("1-3-5")
    config = SimulationConfig(
        tree=tree,
        workload=WorkloadSpec(operations=1500, read_fraction=0.5, keys=4),
        failures=BernoulliFailures(p=0.8, seed=3, resample_every=60.0),
        max_attempts=3,
        timeout=8.0,
        seed=5,
    )

    def run():
        outcomes: list = []
        simulate(config, on_outcome=outcomes.append)
        last_written: dict = {}
        violations = 0
        for outcome in outcomes:
            if not outcome.success:
                continue
            if outcome.op_type == "write":
                last_written[outcome.key] = outcome.value
            else:
                expected = last_written.get(outcome.key)
                if expected is not None and outcome.value != expected:
                    violations += 1
        return violations

    assert benchmark(run) == 0
