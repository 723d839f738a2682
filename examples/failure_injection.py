"""Failure injection: crashes, repairs and a network partition.

Exercises the Section 2.2 failure model end to end:

1. a crash/repair process (exponential up/down times) running under a
   steady workload — operations route around the failed replicas and the
   measured availability tracks the closed form for the process's
   stationary per-replica availability;
2. a hard network partition isolating one physical level — writes can
   still commit on a fully-connected level, reads fail while no complete
   cover exists, and everything recovers when the partition heals.

Run:  python examples/failure_injection.py
"""

from __future__ import annotations

from repro.core import analyse, from_spec, recommended_tree
from repro.sim import (
    CrashRepairProcess,
    SimulationConfig,
    WorkloadSpec,
    simulate,
)
from repro.sim.failures import PartitionSchedule
from repro.sim.network import PartitionSpec


def crash_repair_demo() -> None:
    tree = recommended_tree(40)
    process = CrashRepairProcess(mean_uptime=400.0, mean_downtime=100.0, seed=2)
    p = process.long_run_availability
    metrics = analyse(tree, p=p)
    result = simulate(
        SimulationConfig(
            tree=tree,
            workload=WorkloadSpec(
                operations=4000, read_fraction=0.5, keys=32,
                arrival="poisson", rate=0.2,
            ),
            failures=process,
            max_attempts=1,
            timeout=8.0,
            seed=4,
        )
    )
    summary = result.summary()
    print(f"crash/repair process on {tree.spec()} "
          f"(stationary per-replica availability p = {p:.2f}):")
    print(f"  measured read availability  {summary['read_availability']:.3f}  "
          f"(closed form {metrics.read_availability:.3f})")
    print(f"  measured write availability {summary['write_availability']:.3f}  "
          f"(closed form {metrics.write_availability:.3f})")
    crashes = sum(site.stats.crashes for site in result.sites)
    print(f"  total crashes injected      {crashes}")
    print()


def partition_demo() -> None:
    tree = from_spec("1-3-5")
    level1 = set(tree.replica_ids_at(1))          # replicas 0..2
    level2 = set(tree.replica_ids_at(2))          # replicas 3..7
    # The coordinator (SID -1) stays on level 2's side of the split.
    partition = PartitionSpec.split(level1, level2 | {-1})
    outcomes: list = []
    simulate(
        SimulationConfig(
            tree=tree,
            workload=WorkloadSpec(operations=600, read_fraction=0.5, keys=8),
            failures=PartitionSchedule(partition, start=400.0, end=1200.0),
            max_attempts=1,
            timeout=8.0,
            seed=9,
        ),
        on_outcome=outcomes.append,
    )
    during = [o for o in outcomes if 400 <= o.started_at < 1200]
    before_after = [
        o for o in outcomes if o.started_at < 400 or o.started_at >= 1208
    ]
    reads_during = [o for o in during if o.op_type == "read"]
    writes_during = [o for o in during if o.op_type == "write"]
    print("network partition isolating physical level 1 (t in [400, 1200)):")
    print(f"  reads during the split:  "
          f"{sum(o.success for o in reads_during)}/{len(reads_during)} succeed "
          "(no quorum can cover both levels)")
    print(f"  writes during the split: "
          f"{sum(o.success for o in writes_during)}/{len(writes_during)} succeed "
          "(level 2 is complete on the coordinator's side)")
    healthy = sum(o.success for o in before_after)
    print(f"  outside the split:       {healthy}/{len(before_after)} succeed")
    print()
    print("One-copy equivalence is preserved throughout: a write quorum")
    print("(one whole level) and a read quorum (one node per level) always")
    print("intersect, so reads can never return a value that skips a")
    print("committed write — the protocol simply refuses reads it cannot")
    print("serve consistently during the partition.")


def main() -> None:
    crash_repair_demo()
    partition_demo()


if __name__ == "__main__":
    main()
