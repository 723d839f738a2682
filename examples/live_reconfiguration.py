"""Shifting along the spectrum at runtime: live tree reconfiguration.

The paper's conclusion promises that adapting to a new read/write mix means
"just modifying the structure of the tree".  This example runs the full
story: a write-heavy phase on a MOSTLY-WRITE-style tree, a measured
migration to a read-optimised tree chosen by the tuning advisor, and a
read-heavy phase — with every value surviving the shape change and the
measured costs flipping exactly as the analysis predicts.

Run:  python examples/live_reconfiguration.py
"""

from __future__ import annotations

import random

from repro.core import analyse, mostly_write
from repro.core.tuning import recommend
from repro.sim.coordinator import QuorumCoordinator
from repro.sim.engine import SimulationConfig, build_simulation
from repro.sim.reconfigure import TreeReconfigurer

N = 9
KEYS = [f"sensor{i}" for i in range(6)]


class Driver:
    """Blocking facade over the event-driven stack."""

    def __init__(self, tree):
        config = SimulationConfig(tree=tree, seed=7)
        (self.scheduler, _w, self.monitor,
         self.network, self.sites) = build_simulation(config)
        self.coordinator: QuorumCoordinator = self.network.endpoint(-1)
        self.reconfigurer = TreeReconfigurer(self.coordinator)

    def call(self, op):
        box = []
        op(box.append)
        while not box:
            self.scheduler.step()
        return box[0]


def run_phase(driver, rng, operations, read_fraction, audit):
    touched = 0
    for i in range(operations):
        key = rng.choice(KEYS)
        if rng.random() < read_fraction:
            outcome = driver.call(
                lambda cb, k=key: driver.coordinator.read(k, cb)
            )
            if outcome.success and key in audit:
                assert outcome.value == audit[key], "consistency violated!"
        else:
            value = f"reading-{i}"
            outcome = driver.call(
                lambda cb, k=key, v=value: driver.coordinator.write(k, v, cb)
            )
            if outcome.success:
                audit[key] = value
        touched += len(outcome.quorum)
    return touched / operations


def main() -> None:
    rng = random.Random(3)
    write_tree = mostly_write(N)
    driver = Driver(write_tree)
    audit: dict = {}

    print(f"phase 1 — ingest burst on {write_tree.spec()} "
          f"(write load {analyse(write_tree).write_load:.3f})")
    avg = run_phase(driver, rng, 200, read_fraction=0.1, audit=audit)
    print(f"  avg replicas touched per op: {avg:.2f}\n")

    advice = recommend(N, p=0.95, read_fraction=0.9)
    read_tree = advice.tree
    print(f"workload flips to 90% reads; the advisor picks {read_tree.spec()}")
    outcome = driver.call(
        lambda cb: driver.reconfigurer.reconfigure_online(read_tree, KEYS, cb)
    )
    print(f"  migration: {outcome.status.value}, "
          f"{outcome.keys_migrated}/{outcome.keys_total} keys, "
          f"{outcome.operations_used} quorum ops, "
          f"{outcome.duration:.0f} time units\n")
    assert outcome.success

    print(f"phase 2 — dashboard traffic on {read_tree.spec()} "
          f"(read cost {analyse(read_tree).read_cost})")
    avg = run_phase(driver, rng, 200, read_fraction=0.9, audit=audit)
    print(f"  avg replicas touched per op: {avg:.2f}\n")

    print("every read during both phases returned the latest committed")
    print("value — the state transfer re-wrote each key through the new")
    print("tree's quorums before the switch, so no configuration change")
    print("ever lost a write.")


if __name__ == "__main__":
    main()
