"""Unit tests for the failure injectors."""

import random

import pytest

from repro.sim.events import Scheduler
from repro.sim.failures import (
    BernoulliFailures,
    CompositeFailures,
    CrashRepairProcess,
    NoFailures,
    PartitionSchedule,
)
from repro.sim.network import Network, PartitionSpec
from repro.sim.site import Site


@pytest.fixture
def rig():
    scheduler = Scheduler()
    network = Network(scheduler, random.Random(0))
    sites = [Site(sid, network) for sid in range(20)]
    return scheduler, network, sites


class TestNoFailures:
    def test_everything_stays_up(self, rig):
        scheduler, network, sites = rig
        NoFailures().install(scheduler, sites, network)
        scheduler.run()
        assert all(site.up for site in sites)

    def test_a_config_equals_itself_and_its_pickled_copy(self):
        """The default injector is stateless: two compare (and hash)
        equal, so a default ``SimulationConfig`` equals its copies."""
        import pickle

        from repro.sim.engine import SimulationConfig

        assert NoFailures() == NoFailures()
        assert hash(NoFailures()) == hash(NoFailures())
        assert NoFailures() != CompositeFailures([])
        config = SimulationConfig()
        assert config == SimulationConfig()
        assert pickle.loads(pickle.dumps(config)) == config


class TestBernoulli:
    def test_initial_snapshot_roughly_p(self, rig):
        scheduler, network, sites = rig
        BernoulliFailures(p=0.5, seed=0).install(scheduler, sites, network)
        up = sum(site.up for site in sites)
        assert 3 <= up <= 17  # loose binomial band for n=20

    def test_p_one_keeps_everyone_up(self, rig):
        scheduler, network, sites = rig
        BernoulliFailures(p=1.0, seed=0).install(scheduler, sites, network)
        assert all(site.up for site in sites)

    def test_p_zero_crashes_everyone(self, rig):
        scheduler, network, sites = rig
        BernoulliFailures(p=0.0, seed=0).install(scheduler, sites, network)
        assert not any(site.up for site in sites)

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            BernoulliFailures(p=1.5)

    def test_mapping_p_drives_per_site_fate(self, rig):
        scheduler, network, sites = rig
        p = {site.sid: (1.0 if site.sid % 2 == 0 else 0.0) for site in sites}
        BernoulliFailures(p=p, seed=0).install(scheduler, sites, network)
        assert all(site.up == (site.sid % 2 == 0) for site in sites)

    def test_mapping_p_must_cover_every_site(self, rig):
        """Regression: a partial mapping used to die with a bare KeyError
        on the first missing SID (and an empty mapping passed vacuously)."""
        scheduler, network, sites = rig
        partial = {site.sid: 0.5 for site in sites[:-3]}
        with pytest.raises(ValueError, match="missing SIDs"):
            BernoulliFailures(p=partial, seed=0).install(
                scheduler, sites, network
            )
        with pytest.raises(ValueError, match="missing SIDs"):
            BernoulliFailures(p={}, seed=0).install(scheduler, sites, network)

    def test_resampling_changes_states(self, rig):
        scheduler, network, sites = rig
        BernoulliFailures(p=0.5, seed=3, resample_every=10.0).install(
            scheduler, sites, network
        )
        states = []
        for window in range(1, 6):
            scheduler.run(until=window * 10.0 + 0.5)
            states.append(tuple(site.up for site in sites))
        assert len(set(states)) > 1

    def test_long_run_fraction_matches_p(self, rig):
        scheduler, network, sites = rig
        BernoulliFailures(p=0.7, seed=1, resample_every=5.0).install(
            scheduler, sites, network
        )
        total_up = 0
        samples = 200
        for window in range(1, samples + 1):
            scheduler.run(until=window * 5.0 + 0.5)
            total_up += sum(site.up for site in sites)
        assert total_up / (samples * len(sites)) == pytest.approx(0.7, abs=0.04)


class TestCrashRepair:
    def test_long_run_availability_property(self):
        process = CrashRepairProcess(mean_uptime=300.0, mean_downtime=100.0)
        assert process.long_run_availability == pytest.approx(0.75)

    def test_invalid_means_rejected(self):
        with pytest.raises(ValueError):
            CrashRepairProcess(mean_uptime=0.0, mean_downtime=1.0)

    def test_sites_cycle_through_states(self, rig):
        scheduler, network, sites = rig
        CrashRepairProcess(
            mean_uptime=10.0, mean_downtime=5.0, seed=2, horizon=500.0
        ).install(scheduler, sites, network)
        scheduler.run()
        assert all(site.stats.crashes > 0 for site in sites)
        assert all(site.stats.recoveries > 0 for site in sites)

    def test_measured_availability_tracks_stationary(self, rig):
        scheduler, network, sites = rig
        process = CrashRepairProcess(
            mean_uptime=40.0, mean_downtime=10.0, seed=4, horizon=20_000.0
        )
        process.install(scheduler, sites, network)
        up_samples = 0
        total = 0
        for tick in range(1, 2000):
            scheduler.run(until=tick * 10.0)
            up_samples += sum(site.up for site in sites)
            total += len(sites)
        assert up_samples / total == pytest.approx(
            process.long_run_availability, abs=0.05
        )

    def test_horizon_stops_new_crashes(self, rig):
        scheduler, network, sites = rig
        CrashRepairProcess(
            mean_uptime=5.0, mean_downtime=5.0, seed=0, horizon=50.0
        ).install(scheduler, sites, network)
        last_crash_at = 0.0
        crashes = [site.stats.crashes for site in sites]
        while scheduler.step():
            now_crashes = [site.stats.crashes for site in sites]
            if now_crashes != crashes:
                crashes = now_crashes
                last_crash_at = scheduler.now
        assert crashes and sum(crashes) > 0
        assert last_crash_at <= 50.0

    def test_recovery_paired_even_past_horizon(self, rig):
        """Regression: a crash whose repair falls past the horizon must
        still recover — the horizon ends the crash process, it does not
        strand sites in the down state forever."""
        scheduler, network, sites = rig
        CrashRepairProcess(
            mean_uptime=5.0, mean_downtime=5.0, seed=0, horizon=50.0
        ).install(scheduler, sites, network)
        scheduler.run()
        for site in sites:
            assert site.stats.crashes == site.stats.recoveries
            assert site.up


class TestPartitionSchedule:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            PartitionSchedule(PartitionSpec.split({0}, {1}), start=5.0, end=2.0)

    def test_partition_applied_and_healed(self, rig):
        scheduler, network, sites = rig
        spec = PartitionSpec.split({0, 1}, {2, 3})
        PartitionSchedule(spec, start=10.0, end=20.0).install(
            scheduler, sites, network
        )
        scheduler.run(until=15.0)
        assert network.partitioned
        assert not network.reachable(0, 2)
        scheduler.run(until=25.0)
        assert not network.partitioned


class TestComposite:
    def test_installs_all_children(self, rig):
        scheduler, network, sites = rig
        composite = CompositeFailures([
            BernoulliFailures(p=0.0, seed=0),
            PartitionSchedule(PartitionSpec.split({0}, {1}), 5.0, 10.0),
        ])
        composite.install(scheduler, sites, network)
        assert not any(site.up for site in sites)
        scheduler.run(until=7.0)
        assert network.partitioned
