"""Unit and integration tests for online tree reconfiguration."""

from repro.core.builder import from_spec, mostly_read, mostly_write
from repro.sim.coordinator import QuorumCoordinator
from repro.sim.engine import SimulationConfig, build_simulation
from repro.sim.reconfigure import ReconfigStatus, TreeReconfigurer


class Rig:
    """A running system with a driver loop and a reconfigurer."""

    def __init__(self, spec="1-3-5", seed=0, clients=1, **config_kwargs):
        self.tree = from_spec(spec)
        config = SimulationConfig(
            tree=self.tree, seed=seed, clients=clients, **config_kwargs
        )
        (self.scheduler, _workload, self.monitor,
         self.network, self.sites) = build_simulation(config)
        self.coordinator: QuorumCoordinator = self.network.endpoint(-1)
        self.reconfigurer = TreeReconfigurer(self.coordinator)

    def run(self, op) -> object:
        box = []
        op(box.append)
        while not box:
            assert self.scheduler.step(), "stalled"
        return box[0]

    def write(self, key, value):
        return self.run(lambda cb: self.coordinator.write(key, value, cb))

    def read(self, key):
        return self.run(lambda cb: self.coordinator.read(key, cb))

    def reconfigure(self, new_tree, keys):
        return self.run(
            lambda cb: self.reconfigurer.reconfigure_online(
                new_tree, keys, cb
            )
        )


class TestReconfiguration:
    def test_successful_migration(self):
        rig = Rig()
        for i in range(4):
            assert rig.write(f"k{i}", f"v{i}").success
        outcome = rig.reconfigure(mostly_write(8), [f"k{i}" for i in range(4)])
        assert outcome.success
        assert outcome.keys_migrated == 4
        assert outcome.duration > 0
        # the new system is live
        assert rig.coordinator.system.tree.spec() == mostly_write(8).spec()

    def test_values_survive_the_shape_change(self):
        rig = Rig()
        expected = {}
        for i in range(5):
            outcome = rig.write(f"k{i}", i * 10)
            expected[f"k{i}"] = i * 10
            assert outcome.success
        assert rig.reconfigure(mostly_read(8), list(expected)).success
        for key, value in expected.items():
            result = rig.read(key)
            assert result.success and result.value == value

    def test_new_tree_quorums_serve_reads(self):
        """After migrating to MOSTLY-READ, a single replica answers reads."""
        rig = Rig()
        rig.write("k", "v")
        assert rig.reconfigure(mostly_read(8), ["k"]).success
        result = rig.read("k")
        assert result.success
        assert len(result.quorum) == 1  # one physical level -> cost 1

    def test_unwritten_keys_skipped(self):
        rig = Rig()
        rig.write("present", "v")
        outcome = rig.reconfigure(mostly_write(8), ["present", "absent"])
        assert outcome.success
        assert outcome.keys_migrated == 1  # 'absent' had nothing to move

    def test_a_key_whose_latest_value_is_none_is_migrated(self):
        """Regression: ``None`` is a value, not "never written".

        The copy took a ``None`` read for an unwritten key and skipped
        the re-write, so a ``None`` committed on old level {0, 1, 2}
        stayed there; every 1-4-4 read quorum through site 3 then
        returned the older version.
        """
        rig = Rig()
        assert rig.write("k", "old").success
        for sid in (3, 4, 5, 6, 7):  # the None can only land on {0, 1, 2}
            rig.sites[sid].crash()
        latest = rig.write("k", None)
        assert latest.success and sorted(latest.quorum) == [0, 1, 2]
        for sid in (3, 4, 5, 6, 7):
            rig.sites[sid].recover()
        outcome = rig.reconfigure(from_spec("1-4-4"), ["k"])
        assert outcome.success and outcome.keys_migrated == 1
        for _ in range(200):
            result = rig.read("k")
            assert result.success and result.value is None
            assert result.timestamp.version >= latest.timestamp.version

    def test_replica_count_must_match(self):
        """A shape for the wrong fleet reports BAD_TREE through on_done.

        Regression: this used to raise ``ValueError`` out of the
        call itself — one synchronous exception among otherwise
        callback-reported failures, which event-driven callers (the
        engine's scheduled reshape) would never catch.
        """
        rig = Rig()
        old_system = rig.coordinator.system
        box = []
        rig.reconfigurer.reconfigure_online(mostly_read(9), [], box.append)
        assert box and box[0].status is ReconfigStatus.BAD_TREE
        assert not box[0].success and not box[0].rolled_back
        assert rig.coordinator.system is old_system  # never transitioned

    def test_concurrent_reconfigurations_refused(self):
        """A second reconfiguration while one runs reports IN_PROGRESS."""
        rig = Rig()
        rig.write("k", "v")
        first, second = [], []
        rig.reconfigurer.reconfigure_online(
            mostly_write(8), ["k"], first.append
        )
        rig.reconfigurer.reconfigure_online(
            mostly_read(8), ["k"], second.append
        )
        assert second and second[0].status is ReconfigStatus.IN_PROGRESS
        while not first:
            assert rig.scheduler.step(), "stalled"
        assert first[0].success

    def test_failed_read_aborts_migration_safely(self):
        rig = Rig()
        rig.write("k", "v")
        for sid in (0, 1, 2):  # kill level 1: reads become impossible
            rig.sites[sid].crash()
        old_system = rig.coordinator.system
        outcome = rig.reconfigure(mostly_write(8), ["k"])
        assert not outcome.success
        assert outcome.status is ReconfigStatus.READ_FAILED
        assert outcome.failed_key == "k"
        assert outcome.rolled_back
        assert rig.coordinator.system is old_system  # back on the old tree

    def test_failed_write_aborts_migration_safely(self):
        rig = Rig()
        rig.write("k", "v")
        # mostly_write(8) levels are (0,1),(2,3),(4,5),(6,7): killing one
        # replica per pair breaks every NEW write quorum while both trees
        # stay readable (0 serves level {0,1,2}; 3,5,7 serve {3..7}), so
        # the copy's read half succeeds and its dual write cannot.
        for sid in (1, 2, 4, 6):
            rig.sites[sid].crash()
        old_system = rig.coordinator.system
        outcome = rig.reconfigure(mostly_write(8), ["k"])
        assert not outcome.success
        assert outcome.status is ReconfigStatus.WRITE_FAILED
        assert outcome.rolled_back
        assert rig.coordinator.system is old_system

    def test_old_tree_still_consistent_after_aborted_migration(self):
        rig = Rig()
        rig.write("k", "old")
        for sid in (1, 2, 4, 6):
            rig.sites[sid].crash()
        assert not rig.reconfigure(mostly_write(8), ["k"]).success
        for sid in (1, 2, 4, 6):
            rig.sites[sid].recover()
        result = rig.read("k")
        assert result.success and result.value == "old"

    def test_round_trip_reconfiguration(self):
        """1-3-5 -> MOSTLY-WRITE -> back, values intact throughout."""
        rig = Rig()
        rig.write("k", "first")
        assert rig.reconfigure(mostly_write(8), ["k"]).success
        rig.write("k", "second")
        assert rig.reconfigure(from_spec("1-3-5"), ["k"]).success
        result = rig.read("k")
        assert result.success and result.value == "second"

    def test_writes_after_migration_use_new_levels(self):
        rig = Rig()
        assert rig.reconfigure(mostly_write(8), []).success
        outcome = rig.write("k", "v")
        assert outcome.success
        assert len(outcome.quorum) == 2  # a MOSTLY-WRITE level

    def test_pool_peers_switch_trees_with_the_group(self):
        """Regression (pool-peer stale tree): the swap must be group-scoped.

        Two coordinators share one lock manager / version floor (a shard
        pool).  Migrating through coordinator A alone used to leave B on
        the old tree: B's old-tree write quorums need not intersect A's
        new-tree read quorums, so A serves stale reads.
        """
        rig = Rig(clients=2)
        a = rig.coordinator
        b: QuorumCoordinator = rig.network.endpoint(-2)
        assert rig.run(lambda cb: a.write("k", "v0", cb)).success
        assert rig.reconfigure(mostly_read(8), ["k"]).success
        # the peer writes after the swap; pre-fix it still uses 1-3-5
        assert rig.run(lambda cb: b.write("k", "v1", cb)).success
        for _ in range(8):
            result = rig.run(lambda cb: a.read("k", cb))
            assert result.success
            assert result.value == "v1", "stale read from a pool peer's write"

    def test_client_write_during_migration_not_lost(self):
        """Regression (resurrection race): a write inside the window wins.

        A client write submitted mid-migration used to race the per-key
        re-write: it version-rounds on the old tree, then the migration
        re-writes the *old* value at a higher version through the new
        tree, and the client's update is lost after the swap.  The copy
        is one exclusive-locked operation and the window's writes land
        on both trees, so the later write survives.
        """
        rig = Rig()
        assert rig.write("k", "v0").success
        box, wbox = [], []
        rig.reconfigurer.reconfigure_online(
            mostly_write(8), ["k"], box.append
        )
        # the transition has begun; this write lands inside the window
        rig.coordinator.write("k", "v1", wbox.append)
        while not (box and wbox):
            assert rig.scheduler.step(), "stalled"
        assert box[0].success
        assert wbox[0].success
        result = rig.read("k")
        assert result.success
        assert result.value == "v1", "migration reinstated the old value"

    def test_migrated_version_dominates_everywhere(self):
        """The re-written copy must supersede stale old-level copies."""
        rig = Rig()
        first = rig.write("k", "v")
        assert rig.reconfigure(mostly_write(8), ["k"]).success
        # every replica that now holds k has a version above the original
        holders = [
            site for site in rig.sites if site.store.read("k").value is not None
        ]
        assert holders
        for site in holders:
            entry = site.store.read("k")
            if entry.timestamp.version > first.timestamp.version:
                assert entry.value == "v"
