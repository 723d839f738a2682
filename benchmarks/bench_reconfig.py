"""Online reconfiguration: availability through the epoch, and its cost.

The epoch-based transition moves the group onto dual quorums (old ∪ new
read and write quorums) and migrates under normal locking, so client
traffic keeps completing while the shape changes.  (The quiescent
migration it replaced — pause the pool, drain, copy, swap — was last
measured at 30580c8: window read availability 0.0, read p99 44.5.  It
is gone; EXPERIMENTS.md keeps the row.)

This bench runs a 1-3-5 → 1-4-4 reshape under an open Poisson client
stream with the safety invariant checker armed across the epoch boundary,
plus the survivability case: the transition launched in the middle of a
``flapping`` partition chaos scenario.  Recorded per case: read
availability *inside the transition window* (operations submitted during
the window that completed by its end), whole run availability, read/write
latency percentiles and the invariant counters.  A third case measures
what the migration itself costs, without client traffic: the conclusion's
"no need to implement a new protocol" claim implies shifting along the
spectrum is cheap.  Acceptance (the CI smoke gate):

* window read availability **>= 0.95** — the epoch boundary is (nearly)
  invisible to clients;
* **zero invariant violations** in every case, including the
  reconfigure-during-flapping run (which may legitimately commit *or*
  roll back — both must leave the audit clean);
* migration costs **exactly one copy operation per written key** (the
  copy derives its version from its own read phase, so the separate
  version-discovery round a client write pays is skipped), and values
  **survive a round trip** between extreme shapes.

Every number is simulated time from a seeded run — bit-stable across
hosts, so the recorded JSON is a regression baseline, not a noisy timing.

Run directly::

    PYTHONPATH=src python benchmarks/bench_reconfig.py [--smoke] [--out P]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

try:
    from benchmarks.perf_harness import write_bench_json
except ImportError:  # direct `python benchmarks/bench_reconfig.py`
    sys.path.insert(0, str(Path(__file__).parent))
    from perf_harness import write_bench_json

from repro.cli import build_parser
from repro.commands.options import simulation_config
from repro.core.builder import (
    from_spec,
    mostly_read,
    mostly_write,
    recommended_tree,
)
from repro.sim.engine import SimulationConfig, build_simulation, simulate
from repro.sim.reconfigure import TreeReconfigurer
from repro.sim.workload import WorkloadSpec

SPEC = "1-3-5"
TARGET = "1-4-4"
RESHAPE_AT = 200.0
READ_FRACTION = 0.5
RATE = 0.25
KEYS = 32
SEED = 3

#: Seed for the chaos composition case (picked so the flapping schedule
#: overlaps the transition window).
CHAOS_SEED = 5


def _config(operations: int) -> SimulationConfig:
    return SimulationConfig(
        tree=from_spec(SPEC),
        workload=WorkloadSpec(
            operations=operations,
            read_fraction=READ_FRACTION,
            keys=KEYS,
            arrival="poisson",
            rate=RATE,
        ),
        clients=2,
        seed=SEED,
        check_invariants=True,
        reshape_at=RESHAPE_AT,
        reshape_spec=TARGET,
    )


def _chaos_config(operations: int) -> SimulationConfig:
    """``repro reconfigure`` with the planned target under flapping."""
    config, _label = simulation_config(build_parser("reconfigure").parse_args([
        "reconfigure", SPEC, "--operations", str(operations),
        "--read-fraction", str(READ_FRACTION), "--seed", str(CHAOS_SEED),
        "--max-attempts", "4", "--detector", "--scenario", "flapping",
        "--at", str(RESHAPE_AT),
    ]))
    return config


def _point(case: str, config: SimulationConfig) -> dict:
    started = time.perf_counter()
    result = simulate(config)
    wall = time.perf_counter() - started
    summary = result.summary()
    outcome = result.reconfiguration
    checker = result.invariants
    assert outcome is not None and checker is not None
    window = result.window_read_availability(
        outcome.started_at, outcome.finished_at
    )
    point = {
        "case": case,
        "status": outcome.status.value,
        "rolled_back": outcome.rolled_back,
        "epoch": outcome.epoch,
        "target": outcome.new_tree.spec(),
        "keys_migrated": outcome.keys_migrated,
        "keys_total": outcome.keys_total,
        "window_start": round(outcome.started_at, 2),
        "window_end": round(outcome.finished_at, 2),
        "window_duration": round(outcome.duration, 2),
        "window_read_availability": (
            None if window is None else round(window, 4)
        ),
        "read_availability": round(summary["read_availability"], 4),
        "write_availability": round(summary["write_availability"], 4),
        "read_p50": round(result.monitor.reads.latency_percentile(0.5), 3),
        "read_p99": round(result.monitor.reads.latency_percentile(0.99), 3),
        "write_p99": round(result.monitor.writes.latency_percentile(0.99), 3),
        "invariants_checked": checker.checked,
        "invariant_violations": len(checker.violations),
        "wall_seconds": round(wall, 3),
    }
    window_text = "-" if window is None else f"{window:.4f}"
    print(
        f"{case:>22}  window avail {window_text:>7}  "
        f"rd p99 {point['read_p99']:>7.2f}  "
        f"wr p99 {point['write_p99']:>7.2f}  "
        f"violations {point['invariant_violations']}"
    )
    return point


class _Driver:
    """One idle replica group stepped by hand: no client traffic."""

    def __init__(self, tree) -> None:
        (self.scheduler, _workload, _monitor,
         self.network, _sites) = build_simulation(SimulationConfig(tree=tree))
        self.coordinator = self.network.endpoint(-1)
        self.reconfigurer = TreeReconfigurer(self.coordinator)

    def call(self, op):
        box: list = []
        op(box.append)
        while not box:
            assert self.scheduler.step(), "stalled"
        return box[0]

    def migrate(self, target, keys):
        return self.call(
            lambda done: self.reconfigurer.reconfigure_online(
                target, keys, done
            )
        )


def _migration_cost_point(n: int, keys: int) -> dict:
    """``keys`` written keys on ``recommended_tree(n)`` -> MOSTLY-READ, then
    a round trip MOSTLY-WRITE -> MOSTLY-READ -> back, values checked."""
    driver = _Driver(recommended_tree(n))
    names = [f"k{index}" for index in range(keys)]
    for index, name in enumerate(names):
        assert driver.call(
            lambda done: driver.coordinator.write(name, index * 7, done)
        ).success
    sent_before = driver.network.stats.sent
    outcome = driver.migrate(mostly_read(n), names)
    messages = driver.network.stats.sent - sent_before
    assert outcome.success
    for target in (mostly_write(n), mostly_read(n), recommended_tree(n)):
        assert driver.migrate(target, names).success
    intact = all(
        driver.call(
            lambda done: driver.coordinator.read(name, done)
        ).value == index * 7
        for index, name in enumerate(names)
    )
    point = {
        "case": f"reconfig/migration-cost/n={n}/keys={keys}",
        "n": n,
        "keys": keys,
        "copy_ops": outcome.operations_used,
        "messages": messages,
        "messages_per_key": round(messages / keys, 1),
        "sim_time": round(outcome.duration, 2),
        "round_trip_values_intact": intact,
    }
    print(
        f"{point['case']:>36}  copy ops {point['copy_ops']:>3}  "
        f"msgs/key {point['messages_per_key']:>6.1f}  "
        f"round trip {'intact' if intact else 'LOST A VALUE'}"
    )
    return point


def run(smoke: bool, out: str | None = None) -> dict:
    operations = 500 if smoke else 2000
    online = _point("reconfig/online", _config(operations))
    chaotic = _point("reconfig/online+flapping", _chaos_config(operations))
    costs = [
        _migration_cost_point(n, keys)
        for n, keys in (((9, 4), (16, 8)) if smoke else
                        ((9, 4), (16, 8), (36, 16), (64, 16)))
    ]
    points = [online, chaotic, *costs]
    summary = {
        "online_window_read_availability": online[
            "window_read_availability"
        ],
        "online_read_p99": online["read_p99"],
        "online_write_p99": online["write_p99"],
        "flapping_status": chaotic["status"],
        "flapping_rolled_back": chaotic["rolled_back"],
        "total_invariant_violations": (
            online["invariant_violations"] + chaotic["invariant_violations"]
        ),
        "copy_ops_per_written_key": max(
            point["copy_ops"] / point["keys"] for point in costs
        ),
        "round_trip_values_intact": all(
            point["round_trip_values_intact"] for point in costs
        ),
    }
    bench = "reconfig_smoke" if smoke and out else "reconfig"
    path = write_bench_json(bench, points, summary, out=out)
    print(f"\nwrote {path}")
    print(f"summary: {summary}")
    # The ISSUE's acceptance gates.
    assert summary["online_window_read_availability"] >= 0.95, (
        "online transition starved reads: window availability "
        f"{summary['online_window_read_availability']}"
    )
    assert chaotic["status"] == "success" or chaotic["rolled_back"], (
        f"flapping reconfiguration ended non-terminally: {chaotic['status']}"
    )
    assert summary["total_invariant_violations"] == 0, (
        "reconfiguration violated a safety invariant"
    )
    assert all(point["copy_ops"] == point["keys"] for point in costs), (
        "migration no longer costs exactly one copy op per written key"
    )
    assert summary["round_trip_values_intact"], (
        "a value was lost on a round trip between extreme shapes"
    )
    return summary


def test_reconfig_perf_smoke(emit):
    """CI smoke: the transition, the chaos case and the migration cost.

    Writes to a ``_smoke`` JSON so a local pytest run never clobbers the
    recorded full-run baseline in ``BENCH_reconfig.json``.
    """
    from benchmarks.perf_harness import RESULTS_DIR

    summary = run(
        smoke=True, out=str(RESULTS_DIR / "BENCH_reconfig_smoke.json")
    )
    emit(
        "reconfig_smoke",
        "reconfig smoke: window read availability "
        f"{summary['online_window_read_availability']:.2f}, "
        f"flapping -> {summary['flapping_status']}, "
        f"{summary['total_invariant_violations']} violations, "
        f"{summary['copy_ops_per_written_key']:g} copy op per written key",
    )
    assert summary["total_invariant_violations"] == 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="short stream only (CI reconfiguration-job tier)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default benchmarks/results/BENCH_reconfig.json)",
    )
    args = parser.parse_args()
    run(smoke=args.smoke, out=args.out)
