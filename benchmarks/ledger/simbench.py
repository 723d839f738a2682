"""``sim-saturated``: the simulator run people sweep, timed on the host.

No codec and no sockets: only the event core, the simulated network,
sites, locks, coordinator, selection, workload and monitor run.  A run
simulates a handful of seeds derived from ``--seed`` and then the first
of them again: host time is the median over all of them, the simulated
result of the first must repeat exactly.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Any

from repro.core.builder import from_spec
from repro.fault.invariants import InvariantChecker
from repro.sim.engine import (
    SimulationConfig,
    build_simulation,
    run_workload,
    simulate,
)
from repro.sim.workload import WorkloadSpec

from loadgen import percentile
from tracing import coordinator_layers
from workloads import SIM_MIN_SEEDS, SIM_SECONDS_PER_SEED, TREE_SPEC

#: Set-ups timed per repeat; ``setup_s`` is the median over all of them.
_BUILDS_PER_REPEAT = 5

#: What must repeat exactly when one seed is simulated again.
_REPEATABLE = ("reads", "writes", "messages_sent", "duration")


def sim_config(seed: int, operations: int, trace: bool = False) -> SimulationConfig:
    """The configuration ``bench_simcore.py`` calls ``single_group_legacy``."""
    return SimulationConfig(
        tree=from_spec(TREE_SPEC),
        workload=WorkloadSpec(
            operations=operations, read_fraction=0.9, keys=128,
            arrival="poisson", rate=4.0, zipf_s=1.1,
        ),
        clients=4, service_time=1.0, timeout=800.0, seed=seed, trace=trace,
    )


def _timed_repeat(seed: int, operations: int, setup_s: list[float]) -> dict[str, Any]:
    for _ in range(_BUILDS_PER_REPEAT):
        started = time.perf_counter()
        build_simulation(sim_config(seed, operations))
        setup_s.append(time.perf_counter() - started)
    # The previous repeat's outcomes are garbage by now; collecting them
    # inside the timed region would charge them to this repeat.
    gc.collect()
    wall, cpu = time.perf_counter(), time.process_time()
    result = simulate(sim_config(seed, operations))
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    monitor = result.monitor
    summary = result.summary()
    return {
        "seed": seed,
        "wall_s": wall,
        "cpu_s": cpu,
        "events": result.events_processed,
        "max_queue_depth": max(s.stats.max_queue_depth for s in result.sites),
        "failed": monitor.reads.failed + monitor.writes.failed,
        "simulated": {
            **{name: summary[name] for name in _REPEATABLE},
            # Simulated latency, one simulated time unit read as 1 ms: a
            # result of the model, fixed by the seed.
            "read_p50_ms": percentile(monitor.reads.latencies, 0.5),
            "write_p50_ms": percentile(monitor.writes.latencies, 0.5),
        },
    }


def _timed_repeats(seed: int, operations: int, seconds: float) -> dict[str, Any]:
    """One untraced run per derived seed, then the first seed again: its
    simulated result must repeat exactly."""
    seeds = [
        seed * 1000 + index
        for index in range(
            max(SIM_MIN_SEEDS, round(seconds / SIM_SECONDS_PER_SEED))
        )
    ]
    setup_s: list[float] = []
    repeats = [_timed_repeat(s, operations, setup_s) for s in seeds]
    again = _timed_repeat(seeds[0], operations, setup_s)
    repeatable = again["simulated"] == repeats[0]["simulated"]
    repeats.append(again)
    per_seed = [r["simulated"] for r in repeats[:-1]]
    return {
        "repeats": repeats,
        "setup_s": setup_s,
        "violations": [] if repeatable else [
            f"seed {seeds[0]} simulated twice gave two results: "
            f"{repeats[0]['simulated']} then {again['simulated']}"
        ],
        "attempted": operations * len(repeats),
        "failed": sum(r["failed"] for r in repeats),
        "end_to_end": {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": statistics.median(
                operations / r["wall_s"] for r in repeats
            ),
            "cpu_us_per_op": statistics.median(
                r["cpu_s"] / operations * 1e6 for r in repeats
            ),
            "read_p50_ms": statistics.median(
                s["read_p50_ms"] for s in per_seed
            ),
            "write_p50_ms": statistics.median(
                s["write_p50_ms"] for s in per_seed
            ),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            ),
        },
    }


def run_untraced(seed: int, seconds: float, operations: int) -> dict[str, Any]:
    """The ``--trace 0`` run."""
    timed = _timed_repeats(seed, operations, seconds)
    return {
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "violations": timed["violations"],
        "end_to_end": timed["end_to_end"],
        "raw": {"repeats": timed["repeats"], "setup_s": timed["setup_s"]},
    }


def run_traced(seed: int, seconds: float, operations: int) -> dict[str, Any]:
    """The ``--trace 1`` run: untraced repeats for half the time, then the
    first seed once more with a ``TraceRecorder`` and the
    ``InvariantChecker`` wired in."""
    timed = _timed_repeats(seed, operations, seconds / 2)
    first = timed["repeats"][0]
    invariants = InvariantChecker(strict=False)
    scheduler, workload, monitor, network, sites = build_simulation(
        sim_config(first["seed"], operations, trace=True), invariants=invariants
    )
    started = time.perf_counter()
    run_workload(scheduler, workload, max_events=5_000_000)
    traced_wall = time.perf_counter() - started
    latencies = (
        monitor.reads.latencies + monitor.reads.failure_latencies
        + monitor.writes.latencies + monitor.writes.failure_latencies
    )
    untraced_wall = statistics.median(r["wall_s"] for r in timed["repeats"])
    per_layer = {
        # Exact under the seed, from its untraced run (tracing turns the
        # network's batched fan-out off, which changes the event count).
        "site.max_queue_depth": first["max_queue_depth"],
        "engine.events_per_op": first["events"] / operations,
        "engine.msgs_per_op": first["simulated"]["messages_sent"] / operations,
        "engine.sim_events_per_s": statistics.median(
            r["events"] / r["wall_s"] for r in timed["repeats"]
        ),
        **coordinator_layers(
            monitor.recorder, workload.coordinators[0].locks.stats,
            sum(latencies), to_ms=1.0,
        ),
        "obs.trace_overhead_frac": 1.0 - untraced_wall / traced_wall,
    }
    return {
        "attempted": timed["attempted"] + operations,
        "failed": (
            timed["failed"] + monitor.reads.failed + monitor.writes.failed
        ),
        "violations": timed["violations"] + invariants.violations,
        "end_to_end": timed["end_to_end"],
        "per_layer": per_layer,
        "raw": {
            "repeats": timed["repeats"],
            "setup_s": timed["setup_s"],
            "traced_wall_s": traced_wall,
            "traced_spans": len(monitor.recorder.spans),
            "invariants_checked": invariants.checked,
        },
    }
