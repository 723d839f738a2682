"""Perf trajectory of the parallel runner and the selection fast path.

Two halves, one JSON:

* **runner scaling** — times the three runner workloads (figure sweep,
  Monte-Carlo availability, repeated-seed simulations) at ``--jobs`` 1, 2
  and 4, asserting the parallel results are bit-identical to the serial
  ones, and records wall-clock speedups.  Speedups are hardware-bound: on
  a single-core host (see ``host.cpu_count`` in the JSON) process fan-out
  *costs* time, which is exactly why the host fingerprint is stamped into
  the result file.
* **selection fast path** — the per-operation cost of quorum selection
  under churning live sets: the frozenset reference rebuilds the viable
  candidate list per call, the :class:`~repro.quorums.selection.SelectionIndex`
  kernel serves memoised viable rows per (op, live-mask).  Both consume
  identical RNG streams, so the selected quorum sequences must agree
  exactly.

Two tiers:

* ``--smoke`` (and the pytest smoke test, used by the CI runner job):
  small workloads, finishes in seconds; when the host has >= 2 CPUs it
  *fails* unless ``--jobs 2`` beats 1.2x serial on the Monte-Carlo smoke
  workload (on a single-CPU host the gate is recorded but not enforced —
  there is no parallelism to win).
* the default full run uses the figure-sized workloads and records the
  trajectory numbers cited in EXPERIMENTS.md.

Run directly::

    PYTHONPATH=src python benchmarks/bench_runner_scaling.py [--smoke] [--out P]
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from functools import partial
from pathlib import Path

try:
    from benchmarks.perf_harness import Case, run_suite, write_bench_json
except ImportError:  # direct `python benchmarks/bench_runner_scaling.py`
    sys.path.insert(0, str(Path(__file__).parent))
    from perf_harness import Case, run_suite, write_bench_json

from repro.cli import build_parser
from repro.commands.options import simulated_monitor
from repro.core import from_spec
from repro.core.protocol import ArbitraryProtocol
from repro.protocols.zoo import quorum_system
from repro.quorums.selection import SelectionIndex, select_uniform_reference
from repro.runner import parallel_availability, parallel_runs, parallel_sweep

JOBS_LADDER = (1, 2, 4)

#: Replica up-probability when drawing benchmark live sets.
LIVE_P = 0.9


# ----------------------------------------------------------------------
# runner scaling workloads
# ----------------------------------------------------------------------


def _sweep_workload(smoke: bool):
    sizes = (7, 15, 31) if smoke else (7, 15, 31, 63, 81, 127, 243, 255)
    quantities = (
        ("read_cost", "write_cost") if smoke
        else ("read_cost", "write_cost", "read_load", "write_load")
    )

    def run(jobs: int):
        return parallel_sweep(quantities, sizes=sizes, jobs=jobs, size_chunk=1)

    return run


def _availability_workload(smoke: bool):
    samples = 60_000 if smoke else 400_000
    chunk = 5_000 if smoke else 25_000
    ref = ("tree", "1-3-5")

    def run(jobs: int):
        return (
            parallel_availability(
                ref, 0.85, "read", samples=samples, seed=7, jobs=jobs,
                chunk=chunk,
            ),
            parallel_availability(
                ref, 0.85, "write", samples=samples, seed=7, jobs=jobs,
                chunk=chunk,
            ),
        )

    return run


def _simulation_workload(smoke: bool):
    """``repro simulate 1-3-5 --p 0.9 --seed 11 --repeats R``'s fan-out."""
    args = build_parser("simulate").parse_args([
        "simulate", "1-3-5", "--operations", "150" if smoke else "500",
        "--p", "0.9", "--seed", "11",
    ])
    repeats = 4 if smoke else 8

    def run(jobs: int):
        monitors = parallel_runs(
            partial(simulated_monitor, args), repeats, args.seed, jobs=jobs
        )
        return [
            (m.reads, m.writes, m.outcomes) for m in monitors
        ]

    return run


def time_workload(run, jobs_ladder=JOBS_LADDER) -> dict:
    """Wall-clock the workload per job count; verify bit-identical results."""
    timings: dict[str, float] = {}
    baseline = None
    identical = True
    for jobs in jobs_ladder:
        start = time.perf_counter()
        result = run(jobs)
        timings[f"seconds_jobs_{jobs}"] = round(
            time.perf_counter() - start, 4
        )
        if baseline is None:
            baseline = result
        elif result != baseline:
            identical = False
    serial = timings[f"seconds_jobs_{jobs_ladder[0]}"]
    report = dict(timings)
    for jobs in jobs_ladder[1:]:
        elapsed = timings[f"seconds_jobs_{jobs}"]
        report[f"speedup_jobs_{jobs}"] = (
            round(serial / elapsed, 2) if elapsed else float("inf")
        )
    report["bit_identical"] = identical
    return report


# ----------------------------------------------------------------------
# selection fast path
# ----------------------------------------------------------------------


def _draw_live_sets(
    universe: tuple[int, ...], epochs: int, seed: int
) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    return [
        tuple(sid for sid in universe if rng.random() < LIVE_P)
        for _ in range(epochs)
    ]


def selection_case(
    name: str, system, op: str, epochs: int, ops_per_epoch: int,
    repeat: int = 3,
) -> Case:
    """Reference-vs-index selection over the same live-set/RNG schedule.

    Each epoch fixes one live set and selects ``ops_per_epoch`` quorums
    from it — the simulator's access pattern, which is what makes the
    index's per-(op, live-mask) memoisation pay off.
    """
    universe = tuple(sorted(system.universe))
    quorums = tuple(system.materialise(op, 200_000))
    # Size the index for the system under test (majority at n = 15 has
    # C(15, 8) = 6435 read quorums, above the coordinator's default guard);
    # the bench measures the packed path, not the fallback.
    max_quorums = max(len(quorums), 1)
    live_sets = _draw_live_sets(universe, epochs, seed=97)

    def reference():
        rng = random.Random(1234)
        picks = []
        for live in live_sets:
            for _ in range(ops_per_epoch):
                picks.append(select_uniform_reference(quorums, live, rng))
        return picks

    def kernel():
        rng = random.Random(1234)
        index = SelectionIndex(system, max_quorums=max_quorums)
        picks = []
        for live in live_sets:
            for _ in range(ops_per_epoch):
                picks.append(index.select(op, live, rng))
        return picks

    return Case(
        name=f"selection/{name}/{op}/epochs={epochs}x{ops_per_epoch}",
        reference=reference,
        kernel=kernel,
        repeat=repeat,
    )


def selection_cases(smoke: bool) -> list[Case]:
    epochs = 40 if smoke else 200
    ops = 20 if smoke else 50
    # Majority's quorum count explodes combinatorially; the smoke tier
    # keeps the reference side affordable with C(13, 7) = 1716 quorums.
    majority_n = 13 if smoke else 15
    arbitrary = ArbitraryProtocol(from_spec("1-3-5-7"))
    cases = [
        selection_case("arbitrary/1-3-5-7", arbitrary, "read", epochs, ops),
        selection_case("arbitrary/1-3-5-7", arbitrary, "write", epochs, ops),
        # The majority reference costs ~quorum-count per selection; the
        # full-tier case keeps a single timing run (perf_harness treats
        # repeat=1 as that one measurement).
        selection_case(
            f"majority/n={majority_n}", quorum_system("majority", majority_n),
            "read", epochs if smoke else 100, ops,
            repeat=3 if smoke else 1,
        ),
        selection_case(
            "rowa/n=24", quorum_system("rowa", 24), "read", epochs, ops
        ),
    ]
    return cases


# ----------------------------------------------------------------------
# suite
# ----------------------------------------------------------------------


def summarise(scaling: dict, selection_results: list[dict]) -> dict:
    speedups = sorted(
        result["speedup"] for result in selection_results
    )
    return {
        "all_bit_identical": all(
            report["bit_identical"] for report in scaling.values()
        ),
        "selection_values_agree": all(
            result["values_agree"] for result in selection_results
        ),
        "selection_median_speedup": speedups[len(speedups) // 2],
        "selection_min_speedup": speedups[0],
        "mc_speedup_jobs_2": scaling["availability"]["speedup_jobs_2"],
        "mc_speedup_jobs_4": scaling["availability"]["speedup_jobs_4"],
        "cpu_count": os.cpu_count(),
    }


def run(smoke: bool, out: str | None = None) -> dict:
    workloads = {
        "sweep": _sweep_workload(smoke),
        "availability": _availability_workload(smoke),
        "simulations": _simulation_workload(smoke),
    }
    scaling: dict[str, dict] = {}
    for name, workload in workloads.items():
        scaling[name] = time_workload(workload)
        print(f"runner/{name:<14} {scaling[name]}")
    selection_results = run_suite(selection_cases(smoke))
    summary = summarise(scaling, selection_results)
    results = [
        {"case": f"runner/{name}", **report}
        for name, report in scaling.items()
    ] + selection_results
    bench = "runner_smoke" if smoke and out else "runner"
    path = write_bench_json(bench, results, summary, out=out)
    print(f"\nwrote {path}")
    print(f"summary: {summary}")
    assert summary["all_bit_identical"], "parallel results diverged from serial"
    assert summary["selection_values_agree"], "selection kernel/reference mismatch"
    assert summary["selection_min_speedup"] >= 1.0, (
        "selection index slower than the frozenset reference"
    )
    cpus = os.cpu_count() or 1
    if smoke and cpus >= 2:
        # The CI gate: with real cores available, two workers must beat
        # 1.2x serial on the Monte-Carlo smoke workload.
        assert summary["mc_speedup_jobs_2"] >= 1.2, (
            f"--jobs 2 speedup {summary['mc_speedup_jobs_2']} < 1.2x "
            f"on a {cpus}-CPU host"
        )
    return summary


def test_runner_scaling_smoke(emit):
    """CI smoke: bit-identity + selection agreement (+ speedup gate on SMP).

    Writes to a ``_smoke`` JSON so a local pytest run never clobbers the
    recorded full-run trajectory in ``BENCH_runner.json``.
    """
    from benchmarks.perf_harness import RESULTS_DIR

    summary = run(
        smoke=True, out=str(RESULTS_DIR / "BENCH_runner_smoke.json")
    )
    emit(
        "runner_scaling_smoke",
        "runner scaling smoke: "
        f"bit-identical {summary['all_bit_identical']}, "
        f"selection median speedup {summary['selection_median_speedup']:.1f}x, "
        f"mc --jobs 2 speedup {summary['mc_speedup_jobs_2']:.2f}x "
        f"on {summary['cpu_count']} CPU(s)",
    )
    assert summary["all_bit_identical"]
    assert summary["selection_values_agree"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small workloads only (CI runner-job tier)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default benchmarks/results/BENCH_runner.json)",
    )
    arguments = parser.parse_args()
    run(smoke=arguments.smoke, out=arguments.out)
