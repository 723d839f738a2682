"""End-to-end tests: the fault layer wired through the full simulator.

Covers the determinism contract (same seed → bit-identical summaries,
one config → the same run every time, serial ≡ parallel), the detector
actually steering quorum selection, the invariant auditor riding along on
chaos runs, and the ``_defer_unavailable`` finished-context regression.
"""

from dataclasses import replace
from functools import partial

import pytest

from repro.cli import build_parser
from repro.commands.options import simulated_monitor, simulation_config
from repro.core.builder import from_spec
from repro.core.tree import ArbitraryTree
from repro.fault.invariants import InvariantChecker, InvariantViolation
from repro.fault.retry import RetryPolicySpec
from repro.runner import merge_monitors, parallel_runs
from repro.sim.coordinator import OperationOutcome, _OpContext
from repro.fault.scenarios import CHAOS_SCENARIOS
from repro.protocols.zoo import quorum_system
from repro.sim.engine import (
    SimulationConfig,
    build_simulation,
    run_workload,
    simulate,
)
from repro.sim.failures import BernoulliFailures, CrashRepairProcess
from repro.sim.replica import Timestamp
from repro.sim.workload import WorkloadSpec

BACKOFF = RetryPolicySpec(kind="exponential", base=0.5, jitter=0.4)

#: ``repro chaos`` with every scenario, the detector and jittered backoff.
CHAOS_ARGS = build_parser("chaos").parse_args([
    "chaos", "1-3-5", "--operations", "200", "--scenario", "all",
    "--detector", "--retry-policy", "exponential",
    "--backoff", "base=0.5,jitter=0.4",
])


def chaos_config(**overrides):
    base = dict(
        tree=ArbitraryTree.from_level_counts([1, 3, 5]),
        workload=WorkloadSpec(operations=200, arrival="poisson", rate=0.25),
        max_attempts=4,
        timeout=8.0,
        retry_policy=BACKOFF,
        detector=True,
        check_invariants=True,
    )
    base.update(overrides)
    config = SimulationConfig(**base)
    from repro.fault.scenarios import chaos_injector

    return replace(
        config,
        failures=chaos_injector("all", config.tree.n, seed=config.seed),
    )


class TestDeterminism:
    def test_same_seed_chaos_runs_are_bit_identical(self):
        a = simulate(chaos_config(seed=7))
        b = simulate(chaos_config(seed=7))
        assert a.monitor.summary() == b.monitor.summary()
        assert a.summary() == b.summary()
        assert a.suspects.counters() == b.suspects.counters()

    def test_different_seeds_diverge(self):
        a = simulate(chaos_config(seed=7))
        b = simulate(chaos_config(seed=8))
        assert a.monitor.summary() != b.monitor.summary()

    def test_backoff_jitter_is_reproducible(self):
        # Every chaos scenario, composed: the same config twice.
        config = chaos_config(seed=3)
        assert (
            simulate(config).monitor.summary()
            == simulate(config).monitor.summary()
        )

    @pytest.mark.parametrize("failures", [
        BernoulliFailures(p=0.8, seed=3, resample_every=40.0),
        CrashRepairProcess(mean_uptime=60.0, mean_downtime=15.0, seed=3),
    ])
    def test_a_config_runs_the_same_failures_every_time(self, failures):
        # Injectors draw their schedule at install: one seeded at
        # construction and consumed there gave the second simulate() of
        # the same config a different failure schedule.
        config = replace(chaos_config(seed=3), failures=failures)
        first, second = [], []
        simulate(config, on_outcome=first.append)
        simulate(config, on_outcome=second.append)
        assert second == first

    def test_serial_matches_parallel_under_chaos(self):
        run = partial(simulated_monitor, CHAOS_ARGS)
        serial = merge_monitors(parallel_runs(run, 4, CHAOS_ARGS.seed))
        parallel = merge_monitors(
            parallel_runs(run, 4, CHAOS_ARGS.seed, jobs=2)
        )
        assert serial.summary() == parallel.summary()

    def test_fault_fields_off_preserve_legacy_streams(self):
        # A config with every fault knob at its default must replay the
        # exact pre-fault-layer RNG streams, immediate retries included.
        config, _ = simulation_config(build_parser("simulate").parse_args([
            "simulate", "--operations", "150", "--p", "0.9", "--seed", "5",
        ]))
        config = replace(config, max_attempts=2)
        assert config.retry_policy is None
        assert simulate(config).monitor.summary() == simulate(
            config
        ).monitor.summary()


class TestDetectorIntegration:
    def test_stragglers_feed_the_detector(self):
        config, _ = simulation_config(build_parser("chaos").parse_args([
            "chaos", "--operations", "300", "--scenario", "stragglers",
            "--detector", "--seed", "1",
        ]))
        result = simulate(config)
        counters = result.suspects.counters()
        assert counters["suspicions_total"] > 0
        assert counters["selection_avoided"] > 0

    def test_detector_off_leaves_no_suspect_list(self):
        result = simulate(chaos_config(seed=2, detector=False))
        assert result.suspects is None


class TestInvariantIntegration:
    def test_chaos_run_passes_the_auditor(self):
        result = simulate(chaos_config(seed=11))
        assert result.invariants is not None
        assert result.invariants.ok
        assert result.invariants.checked > 0

    def test_corrupted_quorum_is_caught(self):
        # Splice the auditor in front of a healthy run's sink, then feed
        # it a forged outcome whose read quorum misses every write quorum.
        checker = InvariantChecker()
        audit = checker.wrap(lambda outcome: None)
        audit(OperationOutcome(
            op_type="write", key="k", success=True, value="v1",
            timestamp=Timestamp(version=1, sid=0),
            quorum=frozenset({0, 1, 2}),
        ))
        with pytest.raises(InvariantViolation):
            audit(OperationOutcome(
                op_type="read", key="k", success=True, value="v0",
                timestamp=Timestamp(version=1, sid=0),
                quorum=frozenset({97, 98}),
            ))


def settled(config) -> int:
    """Run ``config``, then recover every site, heal the partition and
    drain the scheduler; audit what 2PC left behind (raises on a site
    still in doubt) and return how many commits are still logged."""
    checker = InvariantChecker()
    scheduler, workload, _monitor, network, sites = build_simulation(
        config, invariants=checker
    )
    run_workload(scheduler, workload, max_events=5_000_000)
    for site in sites:
        site.recover()
    network.heal_partition()
    scheduler.run(max_events=1_000_000)
    assert scheduler.pending_events == 0
    return checker.check_settled(sites, workload.coordinators)


class TestSettledState:
    """ROADMAP item 1's done-means, audited on whole runs: once a faulty
    run quiesces, no site still holds a prepared write."""

    @pytest.mark.parametrize("seed", [1, 2, 7])
    @pytest.mark.parametrize("scenario", CHAOS_SCENARIOS + ("all",))
    def test_no_site_is_left_in_doubt_after_chaos(self, scenario, seed):
        # 300 Poisson operations at rate 0.25 span about 1 200 time
        # units, so every injector has finished inside the run.
        args = build_parser("chaos").parse_args([
            "chaos", "1-3-5", "--scenario", scenario, "--operations", "300",
            "--horizon", "600", "--seed", str(seed),
        ])
        config, _label = simulation_config(args)
        settled(config)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("system", ["1-3-5", "tree-quorum"])
    def test_no_site_is_left_in_doubt_on_a_lossy_network(self, system, seed):
        """The lossy recipe: 5 % loss, 2 % duplication, timeout 6."""
        shape = (
            dict(tree=from_spec(system)) if system == "1-3-5"
            else dict(system=quorum_system(system, 7))
        )
        settled(SimulationConfig(
            **shape,
            workload=WorkloadSpec(operations=400, keys=8),
            drop_probability=0.05,
            duplicate_probability=0.02,
            timeout=6.0,
            max_attempts=5,
            check_invariants=True,
            seed=seed,
        ))


class TestDeferFinishedRegression:
    def test_defer_on_finished_context_is_a_no_op(self):
        config = SimulationConfig(
            tree=ArbitraryTree.from_level_counts([1, 3, 5]),
            workload=WorkloadSpec(operations=1),
        )
        scheduler, workload, monitor, network, sites = build_simulation(config)
        coordinator = workload.coordinators[0]
        ctx = _OpContext(
            op_type="read", key="k", on_done=lambda outcome: None,
            lock_token=0, started_at=0.0, finished=True,
        )
        before = scheduler.pending_events
        coordinator._defer_unavailable(ctx)
        assert scheduler.pending_events == before  # nothing scheduled

    def test_traced_chaos_run_leaves_no_open_spans(self):
        result = simulate(chaos_config(seed=4, trace=True))
        recorder = result.monitor.recorder
        assert recorder.open_spans() == []
        # every non-root span must hang off a recorded parent
        for span in recorder.spans.values():
            if span.parent_id:
                assert span.parent_id in recorder.spans
