"""Simulator inner-ring performance: event core + end-to-end ops/sec.

The allocation-lean inner ring (compacting event core, closure-free
delivery, cached link tables — DESIGN.md §2.15) is a *wall-clock*
optimisation: simulated results are bit-identical to the previous
implementation, only the host time per simulated event changes.  That
makes the usual seeded-regression benches blind to it, so this bench
measures wall time directly, at two levels:

* **scheduler ring** — the event core alone.  Two cases: a pure
  schedule/fire ring, and a schedule/cancel churn mix whose cancelled
  far-future timeouts would pile up in the heap without compaction; the
  churn case asserts the heap stays bounded, which needs no timing.
* **end-to-end** — the three saturated workloads used to record the
  pre-PR baseline (a 1-3-5 group legacy-path, the same group with
  batching + leases, and a 16-shard keyspace), reported as ops per
  wall-clock second next to the recorded pre-PR numbers.

Wall-clock numbers are machine-dependent: :data:`PRE_PR_BASELINE` is
only meaningful on the host that recorded it (stamped in the JSON), so
the CI smoke never gates on it.  The speed trajectory of the event core
and of the saturated group lives in the performance ledger
(``benchmarks/ledger``: ``events.ring_events_per_s``,
``events.churn_events_per_s`` and the ``sim-saturated`` workload), which
compares commits in alternating pairs; the embedded copy of the pre-PR
scheduler this file used to race was retired in its favour.

Two tiers:

* ``--smoke`` (and the pytest test, used by the CI simcore job): small
  rings and short streams, finishes in seconds;
* the default full run records the trajectory cited in EXPERIMENTS.md
  and asserts the tentpole acceptance floor: >= 1.5x end-to-end ops/sec
  on the saturated single-group legacy case vs the recorded pre-PR
  baseline.

Run directly::

    PYTHONPATH=src python benchmarks/bench_simcore.py [--smoke] [--out P]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

try:
    from benchmarks.perf_harness import write_bench_json
except ImportError:  # direct `python benchmarks/bench_simcore.py`
    sys.path.insert(0, str(Path(__file__).parent))
    from perf_harness import write_bench_json

from repro.core.builder import from_spec
from repro.shard import ShardedConfig, simulate_sharded
from repro.sim.engine import SimulationConfig, simulate
from repro.sim.events import Scheduler
from repro.sim.workload import WorkloadSpec

#: End-to-end ops/wall-sec recorded immediately before the inner-ring
#: work (commit 85df2e7, best of 3 on the recording host).  Comparable
#: only on that host — see the module docstring; the JSON stamps both
#: this table and the fresh measurements so the trajectory is auditable.
PRE_PR_BASELINE = {
    "single_group_legacy": 12908.0,
    "single_group_batched_leased": 26925.0,
    "shard16": 8651.0,
}
PRE_PR_BASELINE_COMMIT = "85df2e7"

#: Tentpole acceptance floor: saturated single-group legacy-path ops/sec
#: must reach this multiple of the recorded pre-PR baseline.
ACCEPTANCE_SPEEDUP = 1.5


# ---------------------------------------------------------------------------
# scheduler-ring cases
# ---------------------------------------------------------------------------


def _ring_current(events: int) -> int:
    """A message-delivery ring via closure-free ``(callback, arg)`` entries."""
    scheduler = Scheduler()
    consumed = [0]

    def deliver(message: tuple) -> None:
        consumed[0] += 1
        if message[0] > 0:
            scheduler.call_later(1.0, deliver, (message[0] - 1,))

    scheduler.call_later(1.0, deliver, (events - 1,))
    scheduler.run()
    return consumed[0]


def _never() -> None:  # pragma: no cover - cancelled before it can fire
    raise AssertionError("cancelled timeout fired")


def _churn_current(rounds: int) -> tuple[int, int]:
    """Timeout churn: ``(processed events, peak pending entries)``.

    Each round arms a far-future timeout and cancels it when the
    operation completes — the coordinator's ``_arm_timeout``/``_finish``
    pattern.  Compaction reclaims the dead far-future entries, so the
    peak pending count stays bounded however many rounds run.
    """
    scheduler = Scheduler()
    state = [rounds, 0]

    def fire(state: list) -> None:
        state[0] -= 1
        timeout = scheduler.schedule(1_000_000.0, _never)
        if state[0] > 0:
            scheduler.call_later(1.0, fire, state)
        timeout.cancel()
        pending = scheduler.pending_events
        if pending > state[1]:
            state[1] = pending

    scheduler.call_later(1.0, fire, state)
    scheduler.run()
    return scheduler.processed_events, state[1]


def _timed(fn, *args, repeat: int = 3) -> tuple[float, object]:
    """Best (minimum) wall time over ``repeat`` runs + the last value.

    Scheduler noise only ever makes a run *slower*, so the minimum is
    the least-contaminated estimate of the true cost.
    """
    best = float("inf")
    value: object = None
    for _ in range(repeat):
        started = time.perf_counter()
        value = fn(*args)
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best, value


def scheduler_ring_cases(events: int, churn_rounds: int) -> list[dict]:
    """Time the event core on the ring and the churn mix."""
    ring_wall, consumed = _timed(_ring_current, events)
    churn_wall, (processed, peak) = _timed(_churn_current, churn_rounds)
    points = [
        {
            "case": f"scheduler/ring/{events}",
            "events_per_sec": round(events / ring_wall),
            "all_events_fired": consumed == events,
        },
        {
            "case": f"scheduler/churn/{churn_rounds}",
            "events_per_sec": round(processed / churn_wall),
            "all_events_fired": processed == churn_rounds,
            "peak_pending": peak,
        },
    ]
    for point in points:
        print(
            f"{point['case']:<28}  {point['events_per_sec']:>9,} ev/s  "
            f"{'ok' if point['all_events_fired'] else 'LOST EVENTS'}"
        )
    return points


# ---------------------------------------------------------------------------
# end-to-end cases (the pre-PR baseline's exact workloads)
# ---------------------------------------------------------------------------


def single_group_config(
    operations: int, batch_window: float, leases: bool
) -> SimulationConfig:
    """The saturated 1-3-5 group the pre-PR baseline was recorded on."""
    return SimulationConfig(
        tree=from_spec("1-3-5"),
        workload=WorkloadSpec(
            operations=operations, read_fraction=0.9, keys=128,
            arrival="poisson", rate=4.0, zipf_s=1.1,
        ),
        clients=4, service_time=1.0, timeout=800.0, seed=2026,
        batch_window=batch_window, leases=leases,
    )


def shard16_config(operations: int) -> ShardedConfig:
    """The 16-shard keyspace the pre-PR baseline was recorded on."""
    return ShardedConfig(
        workload=WorkloadSpec(
            operations=operations, read_fraction=0.7, keys=20_000,
            arrival="poisson", rate=4.0, zipf_s=0.9,
        ),
        shards=16, systems=(("tree", "1-3-5"),), router="hash",
        clients_per_shard=2, service_time=1.0, timeout=400.0, seed=2024,
    )


def end_to_end_cases(
    single_ops: int, shard_ops: int, repeats: int
) -> list[dict]:
    """Ops per wall-second on the three baseline workloads (best of N)."""
    runs = [
        ("single_group_legacy",
         lambda: simulate(single_group_config(single_ops, 0.0, False))),
        ("single_group_batched_leased",
         lambda: simulate(single_group_config(single_ops, 2.0, True))),
        ("shard16",
         lambda: simulate_sharded(shard16_config(shard_ops))),
    ]
    points = []
    for name, fn in runs:
        best = 0.0
        events_per_sec = 0
        for _ in range(repeats):
            started = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - started
            summary = result.summary()
            ops = (
                summary["reads"] + summary["writes"]
                if "reads" in summary else summary["operations"]
            )
            if ops / wall > best:
                best = ops / wall
                events_per_sec = round(
                    getattr(result, "events_processed", 0) / wall
                )
        baseline = PRE_PR_BASELINE[name]
        point = {
            "case": f"end_to_end/{name}",
            "operations": ops,
            "ops_per_wall_sec": round(best),
            "sim_events_per_sec": events_per_sec,
            "pre_pr_ops_per_wall_sec": baseline,
            "speedup_vs_pre_pr": round(best / baseline, 2),
            "repeats": repeats,
        }
        points.append(point)
        print(
            f"{name:<28}  {point['ops_per_wall_sec']:>7,} ops/wall-sec  "
            f"(pre-PR {baseline:>7,.0f}, "
            f"{point['speedup_vs_pre_pr']:.2f}x)"
        )
    return points


def run(smoke: bool, out: str | None = None) -> dict:
    ring_events = 100_000 if smoke else 1_000_000
    churn_rounds = 20_000 if smoke else 200_000
    single_ops = 2_000 if smoke else 20_000
    shard_ops = 1_600 if smoke else 16_000
    repeats = 1 if smoke else 3

    print("scheduler ring")
    ring = scheduler_ring_cases(ring_events, churn_rounds)
    print("\nend to end (recorded pre-PR baseline workloads)")
    end_to_end = end_to_end_cases(single_ops, shard_ops, repeats)

    by_case = {point["case"]: point for point in ring + end_to_end}
    legacy = by_case["end_to_end/single_group_legacy"]
    summary = {
        "scheduler_ring_events_per_sec":
            by_case[f"scheduler/ring/{ring_events}"]["events_per_sec"],
        "scheduler_churn_events_per_sec":
            by_case[f"scheduler/churn/{churn_rounds}"]["events_per_sec"],
        "churn_peak_pending":
            by_case[f"scheduler/churn/{churn_rounds}"]["peak_pending"],
        "single_group_legacy_ops_per_sec": legacy["ops_per_wall_sec"],
        "single_group_legacy_speedup_vs_pre_pr":
            legacy["speedup_vs_pre_pr"],
        "pre_pr_baseline": PRE_PR_BASELINE,
        "pre_pr_baseline_commit": PRE_PR_BASELINE_COMMIT,
        "acceptance_floor": ACCEPTANCE_SPEEDUP,
    }
    bench = "simcore_smoke" if smoke and out else "simcore"
    path = write_bench_json(bench, ring + end_to_end, summary, out=out)
    print(f"\nwrote {path}")
    print(f"summary: {summary}")
    for point in ring:
        assert point["all_events_fired"], f"{point['case']}: lost events"
    # Deterministic (timing-free) compaction gate: without compaction the
    # heap grows by one dead far-future timeout per round; the core must
    # stay bounded regardless of churn volume.
    assert summary["churn_peak_pending"] <= 2 * 64 + 4, (
        f"compaction failed to bound the heap "
        f"(peak {summary['churn_peak_pending']})"
    )
    if not smoke:
        # The tentpole acceptance floor — recording-host-only, like the
        # baseline itself.
        assert (
            summary["single_group_legacy_speedup_vs_pre_pr"]
            >= ACCEPTANCE_SPEEDUP
        ), (
            f"single-group legacy path reached only "
            f"{summary['single_group_legacy_speedup_vs_pre_pr']}x "
            f"the pre-PR baseline (floor {ACCEPTANCE_SPEEDUP}x)"
        )
    return summary


def test_simcore_perf_smoke(emit):
    """CI smoke: ring + churn + short end-to-end streams.

    Gates only on what no host can change (every event fired, the heap
    stayed bounded); writes to a ``_smoke`` JSON so a local pytest run
    never clobbers the recorded full-run trajectory.
    """
    from benchmarks.perf_harness import RESULTS_DIR

    summary = run(
        smoke=True, out=str(RESULTS_DIR / "BENCH_simcore_smoke.json")
    )
    emit(
        "simcore_smoke",
        "simcore smoke: scheduler ring "
        f"{summary['scheduler_ring_events_per_sec']:,} ev/s, churn "
        f"{summary['scheduler_churn_events_per_sec']:,} ev/s (peak pending "
        f"{summary['churn_peak_pending']}); single-group legacy "
        f"{summary['single_group_legacy_ops_per_sec']:,} ops/wall-sec",
    )
    assert summary["churn_peak_pending"] <= 2 * 64 + 4


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small rings and short streams (CI simcore-job tier)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default benchmarks/results/BENCH_simcore.json)",
    )
    args = parser.parse_args()
    run(smoke=args.smoke, out=args.out)
