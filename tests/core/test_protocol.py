"""Unit tests for read/write quorum construction (Section 3.2)."""

import random

import pytest

from repro.core.builder import from_spec, mostly_read, recommended_tree
from repro.core.protocol import ArbitraryProtocol
from repro.quorums.base import is_cross_intersecting


@pytest.fixture
def protocol():
    return ArbitraryProtocol(from_spec("1-3-5"))


@pytest.mark.parametrize("op", ["read", "write"])
def test_closed_form_availability_is_the_exact_one(protocol, op):
    from repro.quorums.system import QuorumSystem

    for p in (0.5, 0.9):
        assert protocol.availability(p, op) == pytest.approx(
            QuorumSystem.availability(protocol, p, op)
        )


class TestQuorumCounts:
    def test_fact_321_read_count(self, protocol):
        assert protocol.num_read_quorums == 15

    def test_fact_322_write_count(self, protocol):
        assert protocol.num_write_quorums == 2

    def test_enumerated_counts_match(self, protocol):
        assert len(list(protocol.read_quorums())) == 15
        assert len(protocol.write_quorums()) == 2

    def test_counts_for_deeper_tree(self):
        protocol = ArbitraryProtocol(from_spec("1-2-3-4"))
        assert protocol.num_read_quorums == 24
        assert protocol.num_write_quorums == 3


class TestQuorumShape:
    def test_read_quorums_pick_one_per_level(self, protocol):
        tree = protocol.tree
        for quorum in protocol.read_quorums():
            assert len(quorum) == tree.num_physical_levels
            for k in tree.physical_levels:
                assert len(quorum & set(tree.replica_ids_at(k))) == 1

    def test_read_quorums_are_distinct(self, protocol):
        quorums = list(protocol.read_quorums())
        assert len(set(quorums)) == len(quorums)

    def test_write_quorums_are_whole_levels(self, protocol):
        assert protocol.write_quorums() == (
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5, 6, 7}),
        )

    def test_universe(self, protocol):
        assert protocol.universe == frozenset(range(8))


class TestBicoterieProperty:
    def test_explicit_materialisation(self, protocol):
        bc = protocol.bicoterie()
        assert len(bc.read_quorums) == 15
        assert len(bc.write_quorums) == 2

    def test_materialisation_guard(self):
        protocol = ArbitraryProtocol(recommended_tree(100))
        with pytest.raises(ValueError, match="exceed"):
            protocol.bicoterie(max_read_quorums=10)

    def test_cross_intersection(self, protocol):
        assert is_cross_intersecting(
            protocol.read_quorums(), protocol.write_quorums()
        )

    def test_is_bicoterie_shortcut(self, protocol):
        assert protocol.is_bicoterie()


class TestUniformStrategies:
    def test_weights(self, protocol):
        assert protocol.uniform_read_weight() == pytest.approx(1 / 15)
        assert protocol.uniform_write_weight() == pytest.approx(1 / 2)

    def test_sampling_is_uniform_per_level(self, protocol):
        rng = random.Random(0)
        counts = {sid: 0 for sid in range(8)}
        trials = 6000
        for _ in range(trials):
            for sid in protocol.sample_read_quorum(rng):
                counts[sid] += 1
        for sid in range(3):  # level of 3: each picked ~1/3 of the time
            assert counts[sid] / trials == pytest.approx(1 / 3, abs=0.05)
        for sid in range(3, 8):  # level of 5
            assert counts[sid] / trials == pytest.approx(1 / 5, abs=0.05)

    def test_sample_write_quorum_is_a_level(self, protocol):
        rng = random.Random(1)
        for _ in range(20):
            assert protocol.sample_write_quorum(rng) in protocol.write_quorums()


class TestFailureAwareSelection:
    def test_all_live_deterministic(self, protocol):
        quorum = protocol.select_read_quorum(set(range(8)))
        assert quorum == frozenset({0, 3})  # first live per level

    def test_read_routes_around_failures(self, protocol):
        quorum = protocol.select_read_quorum({2, 5})
        assert quorum == frozenset({2, 5})

    def test_read_fails_when_level_dead(self, protocol):
        assert protocol.select_read_quorum({3, 4, 5, 6, 7}) is None

    def test_write_prefers_smallest_live_level(self, protocol):
        assert protocol.select_write_quorum(set(range(8))) == frozenset({0, 1, 2})

    def test_write_uses_other_level_on_failure(self, protocol):
        live = {1, 2, 3, 4, 5, 6, 7}  # replica 0 down
        assert protocol.select_write_quorum(live) == frozenset(range(3, 8))

    def test_write_fails_when_every_level_broken(self, protocol):
        assert protocol.select_write_quorum({0, 1, 3, 4, 5, 6}) is None

    def test_oracle_callable_accepted(self, protocol):
        quorum = protocol.select_read_quorum(lambda sid: sid % 2 == 0)
        assert quorum is not None
        assert all(sid % 2 == 0 for sid in quorum)

    def test_randomised_selection_only_picks_live(self, protocol):
        rng = random.Random(3)
        live = {0, 2, 4, 6, 7}
        for _ in range(50):
            quorum = protocol.select_read_quorum(live, rng)
            assert quorum is not None and quorum <= live

    def test_rowa_degenerate_case(self):
        protocol = ArbitraryProtocol(mostly_read(5))
        assert protocol.num_read_quorums == 5
        assert protocol.num_write_quorums == 1
        assert protocol.select_write_quorum({0, 1, 2, 3}) is None  # one down

    def test_repr(self, protocol):
        assert "m_R=15" in repr(protocol)
