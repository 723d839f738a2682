"""One experiment, two backends: one config on the simulator and on processes.

A :class:`~repro.sim.engine.SimulationConfig` (the 1-3-5 tree, Poisson
arrivals, read leases, an exponential retry policy, the failure
detector and the safety audit) runs once through
:func:`~repro.sim.engine.simulate` and once on a
:class:`~repro.runtime.cluster.LocalCluster` of eight ``repro serve``
processes on localhost, where one time unit is one wall second.  The
same seed issues the same operations on both.  What the paper predicts
(cost and per-replica load, Definition 2.5) does not depend on the
backend; latency does: a simulated hop takes one time unit, a loopback
hop microseconds.  A read served from a lease contacts no replica, so
the measured read cost falls below the paper's by the leased share,
and that share depends on how often writes overlap reads: on timing.

Run:  python examples/two_backends.py
"""

from __future__ import annotations

import asyncio

from repro.core import analyse, from_spec
from repro.fault.retry import RetryPolicySpec
from repro.runtime.cluster import LocalCluster
from repro.sim import SimulationConfig, WorkloadSpec, simulate

CONFIG = SimulationConfig(
    tree=from_spec("1-3-5"),
    workload=WorkloadSpec(
        operations=300, read_fraction=0.8, keys=64,
        arrival="poisson", rate=150.0,
    ),
    timeout=8.0,
    seed=7,
    retry_policy=RetryPolicySpec(kind="exponential", base=0.05, cap=1.0),
    detector=True,
    leases=True,
    check_invariants=True,
)


async def on_processes():
    cluster = LocalCluster(config=CONFIG)
    await cluster.start()
    try:
        return await cluster.run()
    finally:
        await cluster.stop()


def main() -> None:
    metrics = analyse(CONFIG.tree)
    simulated = simulate(CONFIG)
    real = asyncio.run(on_processes())
    rows = [
        ("read availability", None, "read_availability"),
        ("write availability", None, "write_availability"),
        ("read cost", metrics.read_cost, "read_cost"),
        ("write cost", metrics.write_cost_avg, "write_cost"),
        ("write load", metrics.write_load, "write_load"),
        ("read latency mean", None, "read_latency_mean"),
        ("run duration", None, "duration"),
    ]
    print(f"{CONFIG.tree.spec()}, {CONFIG.workload.operations} operations, "
          f"seed {CONFIG.seed}")
    print(f"{'':20} {'paper':>8} {'simulator':>10} {'processes':>10}")
    sim, tcp = simulated.summary(), real.summary()
    for label, paper, key in rows:
        closed = "" if paper is None else f"{paper:.4f}"
        print(f"{label:20} {closed:>8} {sim[key]:10.4f} {tcp[key]:10.4f}")
    print("(latency and duration: simulated time units vs wall seconds)")
    for name, result in (("simulator", simulated), ("processes", real)):
        print(f"{name}: {result.leases.hits} reads served from a lease, "
              f"{result.invariants.checked} operations audited, "
              f"{len(result.invariants.violations)} violations")


if __name__ == "__main__":
    main()
