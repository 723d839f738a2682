"""Unit tests for the chaos scenario library."""

import random

import pytest

from repro.fault.scenarios import (
    CHAOS_SCENARIOS,
    FlakyLinkBursts,
    MassCrash,
    PartitionFlapping,
    RollingRestarts,
    StragglerSites,
    chaos_injector,
)
from repro.sim.events import Scheduler
from repro.sim.failures import CompositeFailures
from repro.sim.network import Network, PartitionSpec
from repro.sim.site import Site


@pytest.fixture
def rig():
    scheduler = Scheduler()
    network = Network(scheduler, random.Random(0))
    sites = [Site(sid, network) for sid in range(9)]
    return scheduler, network, sites


class TestFlakyLinkBursts:
    def test_bursts_degrade_then_settle(self, rig):
        scheduler, network, sites = rig
        FlakyLinkBursts(
            drop=0.8, count=2, period=100.0, duration=20.0, start=10.0,
            horizon=200.0, seed=1,
        ).install(scheduler, sites, network)
        scheduler.run(until=15.0)
        degraded = [
            sid for sid in range(9)
            if network._effective_drop(sid, sid) > 0.0
        ]
        assert len(degraded) == 2
        scheduler.run(until=35.0)
        assert all(
            network._effective_drop(sid, sid) == 0.0 for sid in range(9)
        )

    def test_same_seed_same_burst_schedule(self, rig):
        scheduler, network, sites = rig

        def chosen(seed):
            sch = Scheduler()
            net = Network(sch, random.Random(0))
            sts = [Site(sid, net) for sid in range(9)]
            FlakyLinkBursts(seed=seed, horizon=300.0).install(sch, sts, net)
            sch.run(until=15.0)
            return tuple(
                sid for sid in range(9) if net._effective_drop(sid, sid) > 0
            )

        assert chosen(5) == chosen(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlakyLinkBursts(drop=0.0)
        with pytest.raises(ValueError):
            FlakyLinkBursts(duration=50.0, period=20.0)


class TestRollingRestarts:
    def test_everyone_takes_a_turn_and_recovers(self, rig):
        scheduler, network, sites = rig
        RollingRestarts(period=10.0, downtime=4.0, start=5.0).install(
            scheduler, sites, network
        )
        scheduler.run()
        assert all(site.stats.crashes == 1 for site in sites)
        assert all(site.up for site in sites)

    def test_at_most_one_site_down_at_once(self, rig):
        scheduler, network, sites = rig
        RollingRestarts(period=10.0, downtime=4.0, start=5.0).install(
            scheduler, sites, network
        )
        max_down = 0
        while scheduler.step():
            max_down = max(
                max_down, sum(not site.up for site in sites)
            )
        assert max_down == 1


class TestStragglerSites:
    def test_latency_inflated_then_restored(self, rig):
        scheduler, network, sites = rig
        scenario = StragglerSites(
            factor=10.0, count=3, start=5.0, duration=20.0, seed=2
        )
        scenario.install(scheduler, sites, network)
        scheduler.run(until=6.0)
        assert len(scenario.chosen) == 3
        for sid in scenario.chosen:
            assert network._latency_factor(sid, -1) == 10.0
        scheduler.run(until=30.0)
        for sid in scenario.chosen:
            assert network._latency_factor(sid, -1) == 1.0

    def test_explicit_sids_pin_the_stragglers(self, rig):
        scheduler, network, sites = rig
        scenario = StragglerSites(sids=(2, 6))
        scenario.install(scheduler, sites, network)
        scheduler.run(until=1.0)
        assert scenario.chosen == (2, 6)
        assert network._latency_factor(2, -1) == 20.0

    def test_stragglers_stay_up(self, rig):
        scheduler, network, sites = rig
        scenario = StragglerSites(seed=0)
        scenario.install(scheduler, sites, network)
        scheduler.run(until=100.0)
        assert all(site.up for site in sites)


class TestPartitionFlapping:
    def test_flaps_install_and_heal(self, rig):
        scheduler, network, sites = rig
        spec = PartitionSpec.split({0, 1, 2, 3}, {4, 5, 6, 7, 8})
        PartitionFlapping(
            spec, period=40.0, duty=0.5, start=10.0, end=100.0
        ).install(scheduler, sites, network)
        scheduler.run(until=15.0)
        assert network.partitioned
        scheduler.run(until=35.0)
        assert not network.partitioned
        scheduler.run(until=55.0)
        assert network.partitioned
        scheduler.run()
        assert not network.partitioned  # healed after the window


class TestMassCrash:
    def test_victims_crash_and_stagger_back(self, rig):
        scheduler, network, sites = rig
        scenario = MassCrash(
            at=50.0, fraction=0.5, recover_after=100.0, stagger=5.0, seed=3
        )
        scenario.install(scheduler, sites, network)
        scheduler.run(until=60.0)
        assert len(scenario.victims) == round(0.5 * 9)
        assert all(not sites[sid].up for sid in scenario.victims)
        scheduler.run(until=151.0)
        # recoveries are staggered: the first victim is back, the last not
        up_victims = [sid for sid in scenario.victims if sites[sid].up]
        assert up_victims
        assert len(up_victims) < len(scenario.victims)
        scheduler.run()
        assert all(site.up for site in sites)

    def test_explicit_sids_pin_the_victims(self, rig):
        scheduler, network, sites = rig
        scenario = MassCrash(at=10.0, sids=(3, 7, 8), recover_after=None)
        scenario.install(scheduler, sites, network)
        scheduler.run()
        assert scenario.victims == (3, 7, 8)
        assert all(sites[sid].up == (sid not in {3, 7, 8}) for sid in range(9))

    def test_no_recovery_when_disabled(self, rig):
        scheduler, network, sites = rig
        scenario = MassCrash(at=10.0, fraction=0.3, recover_after=None, seed=0)
        scenario.install(scheduler, sites, network)
        scheduler.run()
        assert all(not sites[sid].up for sid in scenario.victims)


class TestFactory:
    @pytest.mark.parametrize("name", CHAOS_SCENARIOS)
    def test_every_named_scenario_builds_and_installs(self, name, rig):
        scheduler, network, sites = rig
        injector = chaos_injector(name, n=9, seed=1, horizon=200.0)
        injector.install(scheduler, sites, network)
        scheduler.run()
        # Whatever happened, the fleet must end the run fully recovered
        # and the network fully healed — chaos is transient by contract.
        assert all(site.up for site in sites)
        assert not network.partitioned

    def test_all_composes_every_scenario(self, rig):
        scheduler, network, sites = rig
        injector = chaos_injector("all", n=9, seed=1, horizon=200.0)
        assert isinstance(injector, CompositeFailures)
        injector.install(scheduler, sites, network)
        scheduler.run()
        assert all(site.up for site in sites)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos scenario"):
            chaos_injector("earthquake", n=9)
