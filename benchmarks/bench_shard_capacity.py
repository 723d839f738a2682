"""Capacity scaling of the sharded keyspace: ops/sec vs shard count.

The paper's protocol caps a single replicated object's throughput at the
quorum system's capacity (1/load, Naor & Wool); a sharded keyspace buys
capacity by partitioning keys across independent replica groups.  This
benchmark measures that directly: one open-loop Zipf/Poisson client
stream at a fixed **aggregate** arrival rate is routed over 1, 4 and 16
shards (each a 1-3-5 tree replica group with per-replica service time),
and the JSON records simulated throughput and latency percentiles per
shard count.

At 1 shard the offered load exceeds the group's service capacity, so the
run stretches far past the arrival horizon (throughput well below the
arrival rate, queueing-dominated p99).  At 4 and 16 shards the same
stream is spread thin enough that throughput converges to the arrival
rate and p99 collapses to quorum round-trip latency.

Also asserts the parallel-runner contract on sharded runs: a
``--jobs 2`` repeated-seed fan-out folds to results bit-identical to the
serial loop.

Two tiers:

* ``--smoke`` (and the pytest test, used by the CI shard job): a short
  stream, finishes in seconds, still saturates the 1-shard group;
* the default full run records the trajectory cited in EXPERIMENTS.md.

Run directly::

    PYTHONPATH=src python benchmarks/bench_shard_capacity.py [--smoke] [--out P]
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from pathlib import Path

try:
    from benchmarks.perf_harness import write_bench_json
except ImportError:  # direct `python benchmarks/bench_shard_capacity.py`
    sys.path.insert(0, str(Path(__file__).parent))
    from perf_harness import write_bench_json

from repro.runner import merge_monitors, parallel_runs
from repro.shard import ShardedConfig, simulate_sharded
from repro.sim import SimulationConfig, WorkloadSpec

SHARD_COUNTS = (1, 4, 16)

#: Aggregate open-loop arrival rate (ops per simulated time unit).  With
#: SERVICE_TIME below, one 1-3-5 replica group saturates well under this
#: rate; sixteen groups serve it with headroom.
RATE = 4.0

#: Per-message replica processing time — the resource that runs out.
#: Every operation touches a shard's root replica (the 1-3-5 read quorum
#: is the root alone), so at the aggregate rate a single group's root is
#: far past saturation while a sixteenth of the stream leaves it mostly
#: idle.
SERVICE_TIME = 1.0

#: Zipf skew.  Deliberately below ~1: at s >= 1.1 the single hottest key
#: carries >10% of the stream and its *per-key lock* becomes the
#: bottleneck — which no shard count can fix, because one key lives on
#: exactly one shard.  At 0.9 the stream is still strongly skewed but the
#: binding constraint is replica service capacity, the resource sharding
#: actually multiplies.
ZIPF_S = 0.9


#: The hot-key ceiling case: at this skew the hottest key carries >10% of
#: the stream and its per-key lock serialises throughput on whichever
#: shard owns it — the regime sharding cannot fix and read leases can.
HOT_ZIPF_S = 1.1


def _workload(smoke: bool, zipf_s: float = ZIPF_S) -> WorkloadSpec:
    return WorkloadSpec(
        operations=1200 if smoke else 8000,
        read_fraction=0.7,
        keys=20_000 if smoke else 200_000,
        arrival="poisson",
        rate=RATE,
        zipf_s=zipf_s,
    )


def _config(
    shards: int,
    smoke: bool,
    zipf_s: float = ZIPF_S,
    leases: bool = False,
) -> ShardedConfig:
    return ShardedConfig(
        group=SimulationConfig(
            workload=_workload(smoke, zipf_s=zipf_s),
            clients=2,
            service_time=SERVICE_TIME,
            timeout=400.0,  # queueing delay must not read as failure
            seed=2024,
            leases=leases,
        ),
        shards=shards,
        systems=(("tree", "1-3-5"),),
        router="hash",
    )


def capacity_point(shards: int, smoke: bool) -> dict:
    """One shard count: run the stream, report throughput + percentiles."""
    started = time.perf_counter()
    result = simulate_sharded(_config(shards, smoke))
    wall = time.perf_counter() - started
    summary = result.summary()
    reads = result.monitor.reads
    writes = result.monitor.writes
    per_shard = [m.total_operations for m in result.monitor.shards]
    return {
        "case": f"capacity/shards={shards}",
        "shards": shards,
        "arrival_rate": RATE,
        "ops_per_sec": round(summary["ops_per_sec"], 4),
        "duration": round(summary["duration"], 2),
        "read_p50": round(reads.latency_percentile(0.5), 3),
        "read_p99": round(reads.latency_percentile(0.99), 3),
        "write_p50": round(writes.latency_percentile(0.5), 3),
        "write_p99": round(writes.latency_percentile(0.99), 3),
        "read_availability": round(summary["read_availability"], 4),
        "write_availability": round(summary["write_availability"], 4),
        "largest_shard_ops": max(per_shard),
        "smallest_shard_ops": min(per_shard),
        "wall_seconds": round(wall, 3),
    }


def hot_key_point(leases: bool, smoke: bool) -> dict:
    """The Zipf s=1.1 ceiling at 16 shards, with and without read leases.

    With leases off this reproduces the PR 6 ceiling: the hottest key's
    lock serialises its shard regardless of shard count.  With leases on,
    hot reads are served from the write-through lease instead of queueing
    on the lock, so throughput and read tail recover.
    """
    result = simulate_sharded(
        _config(16, smoke, zipf_s=HOT_ZIPF_S, leases=leases)
    )
    summary = result.summary()
    reads = result.monitor.reads
    return {
        "case": f"hot_key/zipf={HOT_ZIPF_S}/leases={'on' if leases else 'off'}",
        "shards": 16,
        "zipf_s": HOT_ZIPF_S,
        "leases": leases,
        "ops_per_sec": round(summary["ops_per_sec"], 4),
        "duration": round(summary["duration"], 2),
        "read_p50": round(reads.latency_percentile(0.5), 3),
        "read_p99": round(reads.latency_percentile(0.99), 3),
        "read_availability": round(summary["read_availability"], 4),
        "write_availability": round(summary["write_availability"], 4),
    }


def _identity_repeat(smoke: bool, seed: int):
    """One repeat of the bit-identity run, built whole at ``seed``."""
    return simulate_sharded(ShardedConfig(
        group=SimulationConfig(
            workload=WorkloadSpec(
                operations=300 if smoke else 1000, keys=4096, zipf_s=1.0,
                arrival="poisson", rate=1.0,
            ),
            timeout=8.0,
            seed=seed,
        ),
        shards=4,
        p=0.9,
    )).monitor


def jobs_bit_identity(smoke: bool) -> dict:
    """Serial vs ``--jobs 2`` repeated-seed sharded fan-out must agree."""
    run = partial(_identity_repeat, smoke)
    repeats = 3
    started = time.perf_counter()
    serial = merge_monitors(parallel_runs(run, repeats, 77))
    serial_seconds = time.perf_counter() - started
    started = time.perf_counter()
    fanned = merge_monitors(parallel_runs(run, repeats, 77, jobs=2))
    fanned_seconds = time.perf_counter() - started
    identical = (
        serial.summary() == fanned.summary()
        and serial.per_shard_summaries() == fanned.per_shard_summaries()
    )
    return {
        "case": "runner/shard_jobs_bit_identity",
        "repeats": repeats,
        "bit_identical": identical,
        "seconds_jobs_1": round(serial_seconds, 4),
        "seconds_jobs_2": round(fanned_seconds, 4),
    }


def run(smoke: bool, out: str | None = None) -> dict:
    points = []
    for shards in SHARD_COUNTS:
        point = capacity_point(shards, smoke)
        points.append(point)
        print(
            f"shards={shards:>2}  ops/sec {point['ops_per_sec']:>7.4f}  "
            f"rd p50/p99 {point['read_p50']:>6.2f}/{point['read_p99']:>8.2f}  "
            f"wr p50/p99 {point['write_p50']:>6.2f}/{point['write_p99']:>8.2f}"
        )
    hot_unleased = hot_key_point(leases=False, smoke=smoke)
    hot_leased = hot_key_point(leases=True, smoke=smoke)
    for point in (hot_unleased, hot_leased):
        print(
            f"{point['case']:<28}  ops/sec {point['ops_per_sec']:>7.4f}  "
            f"rd p50/p99 {point['read_p50']:>6.2f}/{point['read_p99']:>8.2f}"
        )
    identity = jobs_bit_identity(smoke)
    print(f"jobs bit-identity: {identity['bit_identical']}")
    by_shards = {point["shards"]: point for point in points}
    summary = {
        "arrival_rate": RATE,
        "ops_per_sec_1": by_shards[1]["ops_per_sec"],
        "ops_per_sec_4": by_shards[4]["ops_per_sec"],
        "ops_per_sec_16": by_shards[16]["ops_per_sec"],
        "capacity_speedup_16_vs_1": round(
            by_shards[16]["ops_per_sec"] / by_shards[1]["ops_per_sec"], 2
        ),
        "p99_read_1": by_shards[1]["read_p99"],
        "p99_read_16": by_shards[16]["read_p99"],
        "hot_key_ops_per_sec_unleased": hot_unleased["ops_per_sec"],
        "hot_key_ops_per_sec_leased": hot_leased["ops_per_sec"],
        "hot_key_lease_lift": round(
            hot_leased["ops_per_sec"] / hot_unleased["ops_per_sec"], 2
        ),
        "hot_key_read_p99_unleased": hot_unleased["read_p99"],
        "hot_key_read_p99_leased": hot_leased["read_p99"],
        "jobs_bit_identical": identity["bit_identical"],
    }
    bench = "shard_smoke" if smoke and out else "shard"
    path = write_bench_json(
        bench, points + [hot_unleased, hot_leased, identity], summary, out=out
    )
    print(f"\nwrote {path}")
    print(f"summary: {summary}")
    assert summary["jobs_bit_identical"], (
        "sharded --jobs 2 fan-out diverged from the serial fold"
    )
    # The capacity claim itself: sharding must lift saturated throughput
    # and collapse tail latency.
    assert summary["ops_per_sec_16"] > 1.5 * summary["ops_per_sec_1"], (
        "16 shards did not outscale 1 shard"
    )
    assert summary["p99_read_16"] < summary["p99_read_1"], (
        "sharding did not reduce read tail latency"
    )
    # The hot-key ceiling must yield to leases where shard count could
    # not: throughput up, read tail down, at the same s=1.1 skew.
    assert summary["hot_key_lease_lift"] > 1.0, (
        "read leases did not lift the Zipf 1.1 hot-key throughput"
    )
    assert (
        summary["hot_key_read_p99_leased"]
        < summary["hot_key_read_p99_unleased"]
    ), "read leases did not reduce the hot-key read tail"
    return summary


def test_shard_capacity_smoke(emit):
    """CI smoke: capacity scaling + sharded jobs bit-identity.

    Writes to a ``_smoke`` JSON so a local pytest run never clobbers the
    recorded full-run trajectory in ``BENCH_shard.json``.
    """
    from benchmarks.perf_harness import RESULTS_DIR

    summary = run(
        smoke=True, out=str(RESULTS_DIR / "BENCH_shard_smoke.json")
    )
    emit(
        "shard_capacity_smoke",
        "shard capacity smoke: "
        f"ops/sec {summary['ops_per_sec_1']:.2f} -> "
        f"{summary['ops_per_sec_16']:.2f} over 1 -> 16 shards "
        f"({summary['capacity_speedup_16_vs_1']:.1f}x), "
        f"jobs bit-identical {summary['jobs_bit_identical']}",
    )
    assert summary["jobs_bit_identical"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="short stream only (CI shard-job tier)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default benchmarks/results/BENCH_shard.json)",
    )
    args = parser.parse_args()
    run(smoke=args.smoke, out=args.out)
