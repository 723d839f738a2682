"""Real-execution runtime: wall-clock ops/sec over localhost TCP.

Every other bench in this directory measures the *simulator* (virtual
time) or a pure kernel.  This one measures the real execution backend
(DESIGN.md §2.16): a :class:`~repro.runtime.cluster.LocalCluster` spawns
one ``repro serve`` child process per replica site, dials each over
localhost TCP, and drives the same :class:`QuorumCoordinator` the
simulator uses — so the numbers below are wall-clock protocol cost
(framing, sockets, asyncio scheduling, 2PC round trips), not model
predictions.

Cases, all on the paper's canonical **1-3-5** tree (8 replica sites):

* ``read_heavy`` — 90% reads: the protocol's intended regime (single
  read site on the happy path vs a multi-site 2PC write quorum);
* ``mixed`` — 50/50 get/put;
* ``write_heavy`` — 10% reads: every op pays close to full 2PC cost;
* ``chaos_read`` — read-only traffic with a mid-run SIGKILL of the
  deepest leaf; recorded to show read availability (and its latency
  cost) through a real crash, and gated on zero read failures.

Each case reports wall-clock ops/sec and per-op p50/p99 latency
(milliseconds, linear-interpolation percentiles).  Numbers are machine-
and load-dependent; the JSON stamps the host fingerprint, and the only
asserted gates are correctness-shaped (no failed operations outside the
chaos case, no failed reads inside it).

Two tiers:

* ``--smoke`` (and the pytest test, used by the CI runtime job): fewer
  operations per case, finishes in well under a minute;
* the default full run records the trajectory cited in EXPERIMENTS.md.

Run directly::

    PYTHONPATH=src python benchmarks/bench_runtime.py [--smoke] [--out P]
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path

try:
    from benchmarks.perf_harness import write_bench_json
except ImportError:  # direct `python benchmarks/bench_runtime.py`
    sys.path.insert(0, str(Path(__file__).parent))
    from perf_harness import write_bench_json

from repro.runtime.cluster import LocalCluster, run_traffic

SPEC = "1-3-5"

#: (case name, read fraction, kill mid-run?) — ops count is tier-scaled.
CASES = [
    ("read_heavy", 0.9, False),
    ("mixed", 0.5, False),
    ("write_heavy", 0.1, False),
    ("chaos_read", 1.0, True),
]


async def _run_case(
    name: str,
    read_fraction: float,
    chaos: bool,
    operations: int,
    keys: int,
    seed: int,
) -> dict:
    """One traffic case on a freshly spawned cluster (clean site state)."""
    cluster = LocalCluster(spec=SPEC, timeout=1.0, max_attempts=4, seed=seed)
    await cluster.start()
    try:
        report = await run_traffic(
            cluster,
            operations=operations,
            read_fraction=read_fraction,
            keys=keys,
            seed=seed,
            kill_after_ops=operations // 3 if chaos else None,
        )
    finally:
        await cluster.stop()
    orphans = cluster.orphans()
    assert orphans == [], f"{name}: orphaned site processes {orphans}"
    point = {"case": f"runtime/{SPEC}/{name}", **report.summary()}
    print(
        f"  {name:<12} {report.operations:>5} ops  "
        f"{report.ops_per_sec:>8.1f} ops/sec  "
        f"read p50/p99 {point['read_p50_ms']:.2f}/"
        f"{point['read_p99_ms']:.2f} ms  "
        f"write p50/p99 {point['write_p50_ms']:.2f}/"
        f"{point['write_p99_ms']:.2f} ms"
    )
    return point


async def _run_all(operations: int, keys: int, seed: int) -> list[dict]:
    results = []
    for name, read_fraction, chaos in CASES:
        results.append(
            await _run_case(name, read_fraction, chaos, operations, keys, seed)
        )
    return results


def run(smoke: bool, out: str | None = None) -> dict:
    operations = 60 if smoke else 400
    keys = 4 if smoke else 8

    print(f"runtime backend: {SPEC} tree, real TCP site processes")
    results = asyncio.run(_run_all(operations, keys, seed=0))

    by_case = {point["case"]: point for point in results}
    read_heavy = by_case[f"runtime/{SPEC}/read_heavy"]
    chaos = by_case[f"runtime/{SPEC}/chaos_read"]
    summary = {
        "spec": SPEC,
        "operations_per_case": operations,
        "read_heavy_ops_per_sec": read_heavy["ops_per_sec"],
        "read_heavy_read_p50_ms": read_heavy["read_p50_ms"],
        "read_heavy_read_p99_ms": read_heavy["read_p99_ms"],
        "mixed_ops_per_sec": by_case[f"runtime/{SPEC}/mixed"]["ops_per_sec"],
        "write_heavy_ops_per_sec":
            by_case[f"runtime/{SPEC}/write_heavy"]["ops_per_sec"],
        "chaos_killed_site": chaos["killed_site"],
        "chaos_post_kill_reads": chaos["post_kill_reads"],
        "chaos_post_kill_read_failures": chaos["post_kill_read_failures"],
    }
    bench = "runtime_smoke" if smoke and out else "runtime"
    path = write_bench_json(bench, results, summary, out=out)
    print(f"\nwrote {path}")
    print(f"summary: {summary}")
    # Correctness-shaped gates only (wall-clock magnitudes are host-bound).
    for point in results:
        chaos_case = point["case"].endswith("chaos_read")
        if not chaos_case:
            assert point["read_failures"] == 0, f"{point['case']}: failed reads"
            assert point["write_failures"] == 0, (
                f"{point['case']}: failed writes on a healthy cluster"
            )
        assert point["ops_per_sec"] > 0, f"{point['case']}: no throughput"
    # The tentpole's availability claim: SIGKILL a deepest-level leaf and
    # every post-kill read still succeeds.
    assert chaos["killed_site"] is not None
    assert chaos["post_kill_reads"] > 0
    assert chaos["post_kill_read_failures"] == 0, (
        "reads failed after the leaf SIGKILL"
    )
    return summary


def test_runtime_perf_smoke(emit):
    """CI smoke: all four cases at the small tier, real site processes.

    Writes to a ``_smoke`` JSON so a local pytest run never clobbers the
    recorded full-run trajectory.
    """
    from benchmarks.perf_harness import RESULTS_DIR

    summary = run(
        smoke=True, out=str(RESULTS_DIR / "BENCH_runtime_smoke.json")
    )
    emit(
        "runtime_smoke",
        f"runtime smoke ({SPEC} over real TCP): read-heavy "
        f"{summary['read_heavy_ops_per_sec']:,} ops/wall-sec, read p50 "
        f"{summary['read_heavy_read_p50_ms']} ms, p99 "
        f"{summary['read_heavy_read_p99_ms']} ms; "
        f"{summary['chaos_post_kill_reads']} post-SIGKILL reads, "
        f"{summary['chaos_post_kill_read_failures']} failures",
    )
    assert summary["chaos_post_kill_read_failures"] == 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="fewer operations per case (CI runtime-job tier)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default benchmarks/results/BENCH_runtime.json)",
    )
    args = parser.parse_args()
    run(smoke=args.smoke, out=args.out)
