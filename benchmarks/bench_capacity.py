"""Extension bench: system load as an operational throughput ceiling.

Naor & Wool define a quorum system's *capacity* as the inverse of its load:
a replica that appears in a fraction ``L`` of all quorums saturates once
the operation rate hits ``1 / (L * service_time)``.  The paper's whole
argument for low load is this bottleneck — here we make it observable by
giving every replica a unit service time and driving pure-read traffic at
increasing rates against two shapes with extreme read loads:

* MOSTLY-READ (load 1/n): work spreads, latency stays flat;
* UNMODIFIED (load 1: the root serves every read): the root's queue grows
  without bound as the rate approaches ``1/service_time``, and its mean
  read latency is the M/D/1 queue's (:func:`md1_read_latency`).
"""

from __future__ import annotations

import statistics

import pytest

from repro.analysis.tables import format_table
from repro.core.builder import mostly_read, unmodified_binary
from repro.core.metrics import read_load
from repro.sim import SimulationConfig, WorkloadSpec, simulate

N = 15
SERVICE_TIME = 1.0
RATES = (0.3, 0.6, 0.9)
#: Seeds UNMODIFIED's read latency is averaged over for the model check:
#: one seed's mean at rate 0.9 lies anywhere in 5.1-8.7.
MODEL_SEEDS = range(4, 12)


def md1_read_latency(rate: float) -> float:
    """UNMODIFIED's mean read latency with the root as an M/D/1 queue.

    The root is in every read quorum, so it serves Poisson arrivals at
    ``rate`` with a fixed service time S: utilisation rho = rate * S.  A
    read is one round trip of two unit-latency hops, the service, and the
    Pollaczek-Khinchine mean wait rho * S / (2 (1 - rho)).
    """
    rho = rate * SERVICE_TIME
    return 2.0 + SERVICE_TIME + rho * SERVICE_TIME / (2.0 * (1.0 - rho))


def _run(tree, rate: float, operations: int = 1500, seed: int = 4):
    config = SimulationConfig(
        tree=tree,
        workload=WorkloadSpec(
            operations=operations, read_fraction=1.0, keys=64,
            arrival="poisson", rate=rate,
        ),
        service_time=SERVICE_TIME,
        timeout=10_000.0,   # queueing delay must not trip retries
        seed=seed,
    )
    result = simulate(config)
    worst_queue = max(site.stats.max_queue_depth for site in result.sites)
    return result, worst_queue


@pytest.fixture(scope="module")
def runs():
    shapes = {
        "MOSTLY-READ": mostly_read(N),
        "UNMODIFIED": unmodified_binary(N),
    }
    return {
        (name, rate): _run(tree, rate)
        for name, tree in shapes.items()
        for rate in RATES
    }


@pytest.fixture(scope="module")
def root_queue():
    """UNMODIFIED's mean read latency per rate, averaged over MODEL_SEEDS."""
    tree = unmodified_binary(N)
    return {
        rate: statistics.fmean(
            _run(tree, rate, seed=seed)[0].summary()["read_latency_mean"]
            for seed in MODEL_SEEDS
        )
        for rate in RATES
    }


def test_capacity_table(runs, root_queue, emit, benchmark):
    rows = []
    for (name, rate), (result, worst_queue) in runs.items():
        summary = result.summary()
        rows.append([
            name, rate,
            round(summary["read_latency_mean"], 2),
            round(result.monitor.reads.latency_percentile(0.95), 2),
            worst_queue,
        ])
    model_rows = [
        [rate, round(mean, 3), round(md1_read_latency(rate), 3),
         round(mean / md1_read_latency(rate), 3)]
        for rate, mean in root_queue.items()
    ]
    emit(
        "capacity",
        format_table(
            ["shape", "rate", "mean latency", "p95 latency", "max queue"],
            rows,
            title=f"Read latency vs offered rate (n={N}, service time "
                  f"{SERVICE_TIME}, read loads: MOSTLY-READ "
                  f"{read_load(mostly_read(N)):.3f}, UNMODIFIED "
                  f"{read_load(unmodified_binary(N)):.1f})",
        )
        + "\n\n"
        + format_table(
            ["rate", "mean latency", "M/D/1 model", "ratio"],
            model_rows,
            title=f"UNMODIFIED mean read latency over seeds "
                  f"{MODEL_SEEDS.start}-{MODEL_SEEDS.stop - 1} vs the root "
                  f"as an M/D/1 queue",
        ),
    )
    benchmark(_run, mostly_read(N), 0.3, 200)


def test_low_load_shape_stays_flat(runs, benchmark):
    benchmark(lambda: None)
    latencies = [
        runs[("MOSTLY-READ", rate)][0].summary()["read_latency_mean"]
        for rate in RATES
    ]
    # far below every replica's saturation point: latency ~ RTT + service
    for latency in latencies:
        assert latency < 4.0
    assert latencies[-1] - latencies[0] < 1.0


def test_high_load_shape_saturates(runs, root_queue, benchmark):
    benchmark(lambda: None)
    latencies = [
        runs[("UNMODIFIED", rate)][0].summary()["read_latency_mean"]
        for rate in RATES
    ]
    # the root is in every read quorum: utilisation = rate * service_time,
    # so latency climbs steeply as the rate approaches 1/service_time
    assert latencies == sorted(latencies)
    assert latencies[-1] > runs[("MOSTLY-READ", 0.9)][0].summary()[
        "read_latency_mean"
    ] * 2.0
    # ... to the M/D/1 queue's mean (eight seeds: 1.001 / 1.001 / 0.944)
    for rate, mean in root_queue.items():
        assert 0.9 <= mean / md1_read_latency(rate) <= 1.05


def test_queue_depth_tracks_load(runs, benchmark):
    benchmark(lambda: None)
    for rate in RATES:
        spread_queue = runs[("MOSTLY-READ", rate)][1]
        root_queue = runs[("UNMODIFIED", rate)][1]
        assert root_queue >= spread_queue


def test_bottleneck_is_the_busiest_replica(runs, benchmark):
    """The per-replica touch counts match the analytical load profile."""
    benchmark(lambda: None)
    result, _ = runs[("UNMODIFIED", 0.6)]
    loads = result.monitor.per_replica_read_load()
    assert loads[0] == pytest.approx(1.0)  # the root serves every read
    result, _ = runs[("MOSTLY-READ", 0.6)]
    loads = result.monitor.per_replica_read_load()
    assert max(loads.values()) < 0.25      # ~1/15 each
