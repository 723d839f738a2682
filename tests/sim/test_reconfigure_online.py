"""Integration tests: epoch-based online reconfiguration under live traffic.

The unit-level reconfigurer tests live in ``test_reconfigure.py``; this
file exercises the whole stack — engine scheduling (``reshape_at``), the
dual-quorum transition epoch under a running workload, rollback on
mid-migration failure, chaos composition, and the fault-planned target.
"""

from repro.cli import build_parser
from repro.commands.options import simulation_config
from repro.core.builder import from_spec, mostly_write
from repro.fault.invariants import InvariantChecker
from repro.fault.scenarios import OnlineReshape
from repro.sim.engine import SimulationConfig, build_simulation, simulate
from repro.sim.reconfigure import ReconfigStatus, TreeReconfigurer
from repro.sim.workload import WorkloadSpec


def _workload(operations=400, keys=16):
    return WorkloadSpec(
        operations=operations, read_fraction=0.5, keys=keys,
        arrival="poisson", rate=0.25,
    )


def _online_config(**overrides):
    settings = dict(
        tree=from_spec("1-3-5"), workload=_workload(), seed=3, clients=2,
        check_invariants=True, reshape_at=120.0, reshape_spec="1-4-4",
    )
    settings.update(overrides)
    return SimulationConfig(**settings)


class TestOnlineTransition:
    def test_reads_served_throughout_the_transition(self):
        """The headline property: the epoch boundary is invisible to reads."""
        result = simulate(_online_config())
        outcome = result.reconfiguration
        assert outcome is not None and outcome.success
        assert outcome.epoch == 1
        assert not outcome.rolled_back
        availability = result.window_read_availability(
            outcome.started_at, outcome.finished_at
        )
        assert availability is not None and availability >= 0.95
        assert result.invariants is not None and result.invariants.ok

    def test_epoch_bookkeeping_reaches_the_checker(self):
        """The checker sees both epoch edges and audits inside the window."""
        result = simulate(_online_config())
        checker = result.invariants
        outcome = result.reconfiguration
        assert checker is not None and outcome is not None
        states = [(epoch, state) for epoch, state, _at in checker.epoch_log]
        assert states == [(1, "transition"), (1, "stable")]
        edges = [at for _e, _s, at in checker.epoch_log]
        assert edges[0] >= outcome.started_at
        assert edges[1] <= outcome.finished_at
        assert checker.checked_by_state.get("transition", 0) > 0
        assert checker.checked_by_state.get("stable", 0) > 0

    def test_transition_with_leases_and_batching(self):
        """Epoch bumps revoke leases, so caches never leak across trees."""
        result = simulate(_online_config(batch_window=2.0, leases=True))
        outcome = result.reconfiguration
        assert outcome is not None and outcome.success
        assert result.invariants is not None and result.invariants.ok
        summary = result.summary()
        assert summary["read_availability"] == 1.0


class TestRollback:
    def test_failed_migration_rolls_back_to_the_old_tree(self):
        """A broken target write quorum aborts the epoch cleanly."""
        tree = from_spec("1-3-5")
        config = SimulationConfig(tree=tree, seed=0)
        scheduler, _workload_obj, _monitor, network, sites = (
            build_simulation(config)
        )
        coordinator = network.endpoint(-1)
        checker = InvariantChecker()
        reconfigurer = TreeReconfigurer(coordinator, invariants=checker)

        wrote = []
        coordinator.write("k", "old", wrote.append)
        while not wrote:
            assert scheduler.step(), "stalled"
        assert wrote[0].success

        # mostly_write(8) pairs replicas (0,1)(2,3)(4,5)(6,7): one crash per
        # pair breaks every NEW write quorum, hence every dual write quorum.
        for sid in (1, 2, 4, 6):
            sites[sid].crash()
        old_system = coordinator.system
        box = []
        reconfigurer.reconfigure_online(mostly_write(8), ["k"], box.append)
        while not box:
            assert scheduler.step(), "stalled"
        outcome = box[0]
        assert not outcome.success
        assert outcome.status is ReconfigStatus.WRITE_FAILED
        assert outcome.rolled_back
        assert outcome.epoch == 1
        assert coordinator.system is old_system
        assert checker.epoch_log[-1][1] == "stable"
        assert checker.ok

        # the old tree still serves the pre-migration value
        for sid in (1, 2, 4, 6):
            sites[sid].recover()
        read = []
        coordinator.read("k", read.append)
        while not read:
            assert scheduler.step(), "stalled"
        assert read[0].success and read[0].value == "old"


class TestChaosComposition:
    def test_reconfigure_during_partition_flapping(self):
        """The ISSUE's survivability case: flapping across the epoch."""
        config, _label = simulation_config(build_parser(
            "reconfigure"
        ).parse_args([
            "reconfigure", "1-3-5", "--operations", "800", "--seed", "5",
            "--max-attempts", "4", "--detector", "--scenario", "flapping",
            "--at", "200",
        ]))
        result = simulate(config)
        outcome = result.reconfiguration
        checker = result.invariants
        assert outcome is not None and checker is not None
        # under chaos either the transition commits or it rolls back —
        # both are terminal and both must leave the invariants clean
        assert outcome.success or outcome.rolled_back
        assert checker.ok, checker.violations[:3]
        assert result.summary()["read_availability"] > 0.8

    def test_online_reshape_injector(self):
        """The fault-layer injector drives the same transition."""
        injector = OnlineReshape(spec="1-4-4", at=120.0, keys=8)
        config = SimulationConfig(
            tree=from_spec("1-3-5"), workload=_workload(operations=300),
            failures=injector, seed=3, check_invariants=True,
        )
        result = simulate(config)
        assert injector.outcomes and injector.outcomes[0].success
        assert injector.outcomes[0].epoch == 1
        assert result.invariants is not None and result.invariants.ok


class TestPlannedTarget:
    def test_reshape_without_spec_uses_the_advisor(self):
        """No ``reshape_spec``: the target comes from the tuning advisor."""
        result = simulate(_online_config(reshape_spec=None))
        outcome = result.reconfiguration
        assert outcome is not None and outcome.success
        # the planned shape is a real reshape of the same 8 replicas
        assert outcome.new_tree.n == 8
        assert outcome.new_tree.spec() != from_spec("1-3-5").spec()
