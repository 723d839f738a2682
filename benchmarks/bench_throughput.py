"""End-to-end simulated throughput: read leases vs the baseline.

A replica group running the paper's protocol has two ceilings: it
saturates at its quorum-service capacity, and at Zipf s >= 1.1 the
hottest key's lock serialises the stream however many independent
groups split the keyspace.  This bench
measures read leases, the hot-path feature built to attack those
ceilings, on one saturated 1-3-5 replica group under a 90/10 read-heavy
Zipf stream: Zipf s in {0.9, 1.1, 1.3} with leases off vs on, recording
simulated ops/sec (operations divided by the simulated drain time),
read/write latency percentiles, message counts and lease counters.
With leases off, s >= 1.1 shows the lock-convoy ceiling: read p99 is
queueing-dominated because every read of the hottest key re-runs a
quorum round behind the key's writers.  With leases on, hot reads are
served from the write-through lease at shared-lock grant, so read p99
collapses to (near) round-trip latency.  Gates: leased ops/sec is at
least unleased at every s, and leases halve the s = 1.1 read p99; the
full run also asserts leased reaches **2x** unleased ops/sec at s = 1.1.

Every number is simulated time from a seeded run — bit-stable across
hosts, so the recorded JSON is a regression baseline, not a noisy timing.

Two tiers:

* ``--smoke`` (and the pytest test, used by the CI throughput job): a
  short stream, finishes in seconds, still saturated;
* the default full run records the trajectory cited in EXPERIMENTS.md
  and asserts the 2x acceptance floor.

Run directly::

    PYTHONPATH=src python benchmarks/bench_throughput.py [--smoke] [--out P]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

try:
    from benchmarks.perf_harness import write_bench_json
except ImportError:  # direct `python benchmarks/bench_throughput.py`
    sys.path.insert(0, str(Path(__file__).parent))
    from perf_harness import write_bench_json

from repro.core.builder import from_spec
from repro.sim.engine import SimulationConfig, simulate
from repro.sim.workload import WorkloadSpec

#: Aggregate open-loop arrival rate (ops per simulated time unit) — well
#: past one 1-3-5 group's service capacity, so throughput measures the
#: capacity leases buy back, not the arrival process.
RATE = 4.0

#: Per-message replica processing time — the resource that runs out.
SERVICE_TIME = 1.0

#: 90/10 read-heavy (the acceptance workload).
READ_FRACTION = 0.9

ZIPF_S = 1.1
KEYS = 128
SEED = 2026
ZIPF_SWEEP = (0.9, 1.1, 1.3)


def _config(operations: int, leases: bool, zipf_s: float) -> SimulationConfig:
    return SimulationConfig(
        tree=from_spec("1-3-5"),
        workload=WorkloadSpec(
            operations=operations,
            read_fraction=READ_FRACTION,
            keys=KEYS,
            arrival="poisson",
            rate=RATE,
            zipf_s=zipf_s,
        ),
        clients=4,
        service_time=SERVICE_TIME,
        timeout=800.0,  # queueing delay must not read as failure
        seed=SEED,
        leases=leases,
    )


def _point(case: str, config: SimulationConfig) -> dict:
    started = time.perf_counter()
    result = simulate(config)
    wall = time.perf_counter() - started
    summary = result.summary()
    operations = summary["reads"] + summary["writes"]
    duration = summary["duration"]
    point = {
        "case": case,
        "leases": config.leases,
        "zipf_s": config.workload.zipf_s,
        "ops_per_sec": round(operations / duration, 4),
        "duration": round(duration, 2),
        "read_p50": round(result.monitor.reads.latency_percentile(0.5), 3),
        "read_p99": round(result.monitor.reads.latency_percentile(0.99), 3),
        "write_p99": round(result.monitor.writes.latency_percentile(0.99), 3),
        "read_availability": round(summary["read_availability"], 4),
        "write_availability": round(summary["write_availability"], 4),
        "messages_sent": summary["messages_sent"],
        "wall_seconds": round(wall, 3),
    }
    if result.leases is not None:
        lease_summary = result.leases.summary()
        point["lease_hit_rate"] = round(lease_summary["hit_rate"], 4)
        point["lease_invalidations"] = lease_summary["invalidations"]
    return point


def hot_key_sweep(operations: int) -> list[dict]:
    points = []
    for zipf_s in ZIPF_SWEEP:
        for leases in (False, True):
            label = "on" if leases else "off"
            point = _point(
                f"hot_key/zipf={zipf_s}/leases={label}",
                _config(operations, leases, zipf_s),
            )
            points.append(point)
            print(
                f"zipf={zipf_s} leases={label:>3}  "
                f"ops/sec {point['ops_per_sec']:>7.4f}  "
                f"rd p99 {point['read_p99']:>8.2f}"
            )
    return points


def run(smoke: bool, out: str | None = None) -> dict:
    operations = 1200 if smoke else 4000
    sweep = hot_key_sweep(operations)
    by_case = {point["case"]: point for point in sweep}
    summary = {}
    for zipf_s in ZIPF_SWEEP:
        for label in ("off", "on"):
            point = by_case[f"hot_key/zipf={zipf_s}/leases={label}"]
            summary[f"zipf{zipf_s}_ops_per_sec_leases_{label}"] = (
                point["ops_per_sec"]
            )
            summary[f"zipf{zipf_s}_read_p99_leases_{label}"] = (
                point["read_p99"]
            )
    summary["lease_speedup"] = round(
        summary[f"zipf{ZIPF_S}_ops_per_sec_leases_on"]
        / summary[f"zipf{ZIPF_S}_ops_per_sec_leases_off"],
        2,
    )
    bench = "throughput_smoke" if smoke and out else "throughput"
    path = write_bench_json(bench, sweep, summary, out=out)
    print(f"\nwrote {path}")
    print(f"summary: {summary}")
    # CI smoke gate: leases must never lose throughput at any skew.
    for zipf_s in ZIPF_SWEEP:
        assert (
            summary[f"zipf{zipf_s}_ops_per_sec_leases_on"]
            >= summary[f"zipf{zipf_s}_ops_per_sec_leases_off"]
        ), f"leases lost throughput at zipf {zipf_s}"
    # Leases must break the s=1.1 hot-key lock convoy, not just shave it.
    assert (
        summary[f"zipf{ZIPF_S}_read_p99_leases_on"]
        < 0.5 * summary[f"zipf{ZIPF_S}_read_p99_leases_off"]
    ), "leases did not collapse the hot-key read tail"
    if not smoke:
        # The acceptance floor on the full workload.
        assert summary["lease_speedup"] >= 2.0, (
            f"leases reached only {summary['lease_speedup']}x "
            f"unleased ops/sec at zipf {ZIPF_S}"
        )
    return summary


def test_throughput_perf_smoke(emit):
    """CI smoke: the hot-key sweep on the short stream.

    Writes to a ``_smoke`` JSON so a local pytest run never clobbers the
    recorded full-run trajectory in ``BENCH_throughput.json``.
    """
    from benchmarks.perf_harness import RESULTS_DIR

    summary = run(
        smoke=True, out=str(RESULTS_DIR / "BENCH_throughput_smoke.json")
    )
    emit(
        "throughput_smoke",
        "throughput smoke: "
        f"{summary['zipf1.1_ops_per_sec_leases_off']:.2f} -> "
        f"{summary['zipf1.1_ops_per_sec_leases_on']:.2f} ops/sec "
        f"({summary['lease_speedup']:.1f}x) leased, "
        f"zipf 1.1 read p99 {summary['zipf1.1_read_p99_leases_off']:.0f} -> "
        f"{summary['zipf1.1_read_p99_leases_on']:.0f}",
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="short stream only (CI throughput-job tier)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default benchmarks/results/BENCH_throughput.json)",
    )
    args = parser.parse_args()
    run(smoke=args.smoke, out=args.out)
