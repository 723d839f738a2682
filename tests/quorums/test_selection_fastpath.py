"""SelectionIndex and QuorumChooser tests: dispatch, caching, fallback,
epoch reuse, suspect avoidance."""

import random

import pytest

from repro.core import from_spec
from repro.core.protocol import ArbitraryProtocol
from repro.fault.detector import SuspectList
from repro.protocols.zoo import quorum_system
from repro.quorums.selection import (
    QuorumChooser,
    SelectionIndex,
    select_uniform_reference,
)
from repro.sim import SimulationConfig, WorkloadSpec
from repro.sim.engine import build_simulation


@pytest.fixture
def system():
    return ArbitraryProtocol(from_spec("1-3-5"))


def test_packed_selection_matches_reference_streams(system):
    index = SelectionIndex(system)
    quorums = tuple(system.materialise("read", 10_000))
    universe = sorted(system.universe)
    live_rng = random.Random(5)
    rng_index, rng_reference = random.Random(99), random.Random(99)
    for _ in range(200):
        live = tuple(s for s in universe if live_rng.random() < 0.8)
        assert index.select("read", live, rng_index) == select_uniform_reference(
            quorums, live, rng_reference
        )


def test_counters_track_cache_behaviour(system):
    index = SelectionIndex(system)
    rng = random.Random(0)
    live = tuple(sorted(system.universe))
    index.select("read", live, rng)
    assert (index.packed_selects, index.cache_misses, index.cache_hits) == (1, 1, 0)
    index.select("read", live, rng)
    assert (index.packed_selects, index.cache_misses, index.cache_hits) == (2, 1, 1)
    index.select("read", live[:-1], rng)
    assert index.cache_misses == 2
    assert index.fallback_selects == 0


def test_cache_flushes_at_limit(system):
    index = SelectionIndex(system, cache_limit=2)
    universe = tuple(sorted(system.universe))
    for drop in range(4):
        live = universe[:drop] + universe[drop + 1:]
        index.select("read", live, random.Random(0))
    assert len(index._viable) <= 2


def test_rng_none_returns_first_viable(system):
    quorums = tuple(system.materialise("read", 10_000))
    index = SelectionIndex(system)
    live = tuple(sorted(system.universe))
    assert index.select("read", live) == select_uniform_reference(quorums, live)


def test_empty_and_dead_live_sets_return_none(system):
    index = SelectionIndex(system)
    assert index.select("read", ()) is None
    assert index.select("write", (), random.Random(0)) is None


def test_unknown_sids_in_live_set_are_ignored(system):
    index = SelectionIndex(system)
    live = tuple(sorted(system.universe))
    assert index.select("read", live + (999,), random.Random(3)) == index.select(
        "read", live, random.Random(3)
    )


def test_oversized_system_falls_back_to_structural_selector():
    majority = quorum_system("majority", 15)  # C(15, 8) = 6435 read quorums
    index = SelectionIndex(majority, max_quorums=100)
    live = tuple(sorted(majority.universe))
    picked = index.select("read", live, random.Random(1))
    assert picked == majority.select_read_quorum(set(live), random.Random(1))
    assert index.fallback_selects == 1
    assert index.packed_selects == 0
    assert not index.supported("read")


def test_callable_liveness_routes_to_fallback(system):
    index = SelectionIndex(system)
    live = set(system.universe)
    picked = index.select("read", live.__contains__, random.Random(2))
    assert picked is not None
    assert index.fallback_selects == 1


def test_unknown_op_and_non_positive_limits_are_rejected(system):
    index = SelectionIndex(system)
    live = tuple(sorted(system.universe))
    with pytest.raises(ValueError):
        index.select("commit", live)
    with pytest.raises(ValueError):
        SelectionIndex(system, max_quorums=0)
    with pytest.raises(ValueError):
        SelectionIndex(system, cache_limit=0)


# ----------------------------------------------------------------------
# QuorumChooser: which live quorum an operation uses
# ----------------------------------------------------------------------


class StructuralTwin(ArbitraryProtocol):
    """The arbitrary protocol's quorums behind a structural-only selector:
    what a protocol declaring ``uniform_selection = False`` looks like to
    the chooser, with quorum shapes the tests can reason about."""

    uniform_selection = False


class _Clock:
    now = 0.0


def _probing_detector(down=()):
    probes = []

    def detector(sid):
        probes.append(sid)
        return sid not in down

    return detector, probes


def test_chooser_probes_the_detector_once_per_liveness_epoch(system):
    n = len(system.universe)
    down, epoch = set(), [0]
    detector, probes = _probing_detector(down)
    chooser = QuorumChooser(
        system, detector, random.Random(1), _Clock(),
        liveness_epoch=lambda: epoch[0],
    )
    for _ in range(20):
        assert chooser.choose("read") and chooser.choose("write")
    assert len(probes) == n  # one sweep of the universe served all forty
    down.add(0)
    chooser.choose("read")
    assert len(probes) == n  # no bump, no probe: the epoch is the signal
    epoch[0] += 1
    picks = [chooser.choose("read") for _ in range(30)]
    assert len(probes) == 2 * n
    assert all(0 not in quorum for quorum in picks)


def test_chooser_without_an_epoch_source_probes_every_selection(system):
    detector, probes = _probing_detector()
    chooser = QuorumChooser(system, detector, random.Random(1), _Clock())
    for _ in range(3):
        chooser.choose("read")
    assert len(probes) == 3 * len(system.universe)


@pytest.mark.parametrize("protocol", [ArbitraryProtocol, StructuralTwin])
def test_chooser_avoids_suspects_and_falls_back_blind(protocol):
    # 1-3-5: sites 0-2 are level 1, 3-7 level 2; a read takes one site of
    # each level, a write one whole level.
    suspects = SuspectList(threshold=1)
    chooser = QuorumChooser(
        protocol(from_spec("1-3-5")), lambda sid: True, random.Random(4),
        _Clock(), suspects=suspects,
    )
    suspects.record_timeout([0], 0.0)
    picks = [chooser.choose("read") for _ in range(40)]
    assert all(0 not in quorum for quorum in picks)
    assert chooser.choose("write") == frozenset({3, 4, 5, 6, 7})
    assert suspects.selection_avoided == 41
    # A suspect on every level: no write quorum avoids them all, so the
    # blind selection runs — suspicion must not manufacture unavailability.
    suspects.record_timeout([3], 0.0)
    assert chooser.choose("write") is not None
    assert suspects.selection_avoided == 41


@pytest.mark.parametrize("protocol", [ArbitraryProtocol, StructuralTwin])
def test_chooser_ignores_suspects_the_detector_already_excludes(protocol):
    suspects = SuspectList(threshold=1)
    suspects.record_timeout([0], 0.0)
    chooser = QuorumChooser(
        protocol(from_spec("1-3-5")), lambda sid: sid != 0,
        random.Random(4), _Clock(), suspects=suspects,
    )
    assert 0 not in chooser.choose("read")
    assert suspects.selection_avoided == 0  # liveness did the narrowing


def test_chooser_never_touches_an_index_for_non_uniform_systems(system):
    structural = StructuralTwin(from_spec("1-3-5"))
    offered = SelectionIndex(structural)
    chooser = QuorumChooser(
        structural, lambda sid: True, random.Random(2), _Clock(),
        index=offered,
    )
    assert chooser.index is None
    for _ in range(10):
        assert chooser.choose("read") and chooser.choose("write")
    assert offered.packed_selects == offered.fallback_selects == 0
    # Swapping systems swaps the strategy with it, both ways.
    chooser.set_system(system)
    assert chooser.system is system and chooser.index.system is system
    chooser.set_system(structural, index=chooser.index)
    assert chooser.index is None


def test_chooser_adopts_only_an_index_of_its_own_system(system):
    shared = SelectionIndex(system)
    args = (lambda sid: True, random.Random(2), _Clock())
    assert QuorumChooser(system, *args, index=shared).index is shared
    other = ArbitraryProtocol(from_spec("1-3-5"))
    private = QuorumChooser(other, *args, index=shared).index
    assert private is not shared and private.system is other


# ----------------------------------------------------------------------
# coordinator integration: dispatch gating and epoch-cached liveness
# ----------------------------------------------------------------------


def _build(**overrides):
    settings = dict(
        tree=from_spec("1-3-5"),
        workload=WorkloadSpec(operations=50, read_fraction=0.5),
        seed=3,
    )
    settings.update(overrides)
    return build_simulation(SimulationConfig(**settings))


def _drain(scheduler, workload, operations):
    workload.start()
    while workload.completed < operations:
        assert scheduler.step()


def test_simulation_runs_on_the_packed_path():
    scheduler, workload, monitor, _, _ = _build()
    _drain(scheduler, workload, 50)
    (coordinator,) = workload.coordinators
    assert coordinator.selector is not None
    assert coordinator.selector.packed_selects > 0
    assert coordinator.selector.fallback_selects == 0
    assert monitor.total_operations == 50


def test_epoch_cache_serves_steady_state_from_one_miss():
    scheduler, workload, _, _, _ = _build()
    _drain(scheduler, workload, 50)
    (coordinator,) = workload.coordinators
    selector = coordinator.selector
    # No crash/recovery ever bumped the epoch: one viable-row build per op.
    assert selector.cache_misses <= 2  # read + write tables
    assert selector.cache_hits == selector.packed_selects - selector.cache_misses


def test_non_uniform_protocols_keep_their_structural_selectors():
    system = quorum_system("tree-quorum", 7)
    config = SimulationConfig(
        system=system,
        workload=WorkloadSpec(operations=10, read_fraction=0.5),
        seed=3,
    )
    _, workload, _, _, _ = build_simulation(config)
    (coordinator,) = workload.coordinators
    assert coordinator.selector is None


def test_selection_dispatch_preserves_measured_distribution():
    """The packed path changes *how fast* selection runs, not what it picks.

    Uniform-over-viable is the arbitrary protocol's structural
    distribution (the RNG *streams* differ — the reservoir scan draws one
    randrange per viable quorum, the index exactly one), so the measured
    mean quorum costs of a failure-free run must agree closely whether the
    selector is on or forced off.
    """
    workload_spec = WorkloadSpec(operations=600, read_fraction=0.5)

    scheduler, workload, fast_monitor, _, _ = _build(
        seed=11, workload=workload_spec
    )
    assert workload.coordinators[0].selector is not None
    _drain(scheduler, workload, 600)

    scheduler, workload, slow_monitor, _, _ = _build(
        seed=11, workload=workload_spec
    )
    for coordinator in workload.coordinators:
        # Same tree, structural selector: no index to dispatch onto.
        coordinator.set_system(StructuralTwin(from_spec("1-3-5")))
        assert coordinator.selector is None
    _drain(scheduler, workload, 600)

    assert fast_monitor.reads.mean_cost == pytest.approx(
        slow_monitor.reads.mean_cost, rel=0.1
    )
    assert fast_monitor.writes.mean_cost == pytest.approx(
        slow_monitor.writes.mean_cost, rel=0.1
    )
