"""Unit tests for the Agrawal-El Abbadi tree-quorum protocol (BINARY)."""

import random

import pytest

from repro.protocols.tree_quorum import (
    TreeQuorumProtocol,
    binary_tree_sizes,
    complete_binary_height,
)
from repro.quorums.base import is_intersecting
from repro.quorums.load import optimal_load


class TestTopology:
    def test_height(self):
        assert complete_binary_height(7) == 2
        assert complete_binary_height(1) == 0

    def test_invalid_sizes_rejected(self):
        for n in (2, 4, 6, 8, 100):
            with pytest.raises(ValueError):
                complete_binary_height(n)

    def test_sizes_helper(self):
        assert binary_tree_sizes(3) == [1, 3, 7, 15]

    def test_children(self):
        protocol = TreeQuorumProtocol(7)
        assert protocol.children(0) == (1, 2)
        assert protocol.children(2) == (5, 6)
        assert protocol.children(3) == ()

    def test_leaves(self):
        protocol = TreeQuorumProtocol(7)
        assert [sid for sid in range(7) if protocol.is_leaf(sid)] == [3, 4, 5, 6]


class TestQuorumConstruction:
    def test_failure_free_returns_root_to_leaf_path(self):
        protocol = TreeQuorumProtocol(7)
        quorum = protocol.construct_quorum(set(range(7)))
        assert quorum == frozenset({0, 1, 3})  # deterministic left path

    def test_root_failure_substitutes_children(self):
        protocol = TreeQuorumProtocol(7)
        quorum = protocol.construct_quorum(set(range(1, 7)))
        # both child subtrees must contribute a path
        assert quorum == frozenset({1, 3}) | frozenset({2, 5})

    def test_interior_failure(self):
        protocol = TreeQuorumProtocol(7)
        quorum = protocol.construct_quorum({0, 2, 3, 4, 5, 6})
        # node 1 dead: root takes the right path instead
        assert quorum is not None and 1 not in quorum
        assert 0 in quorum

    def test_leaf_level_failure_can_block(self):
        protocol = TreeQuorumProtocol(3)
        # root dead and one leaf dead: no quorum
        assert protocol.construct_quorum({1}) is None

    def test_all_leaves_is_worst_case(self):
        protocol = TreeQuorumProtocol(7)
        quorum = protocol.construct_quorum({3, 4, 5, 6})
        assert quorum == frozenset({3, 4, 5, 6})
        assert len(quorum) == protocol.max_cost()

    def test_no_quorum_when_too_many_dead(self):
        protocol = TreeQuorumProtocol(7)
        assert protocol.construct_quorum({3, 4}) is None

    def test_randomised_construction_stays_live(self):
        protocol = TreeQuorumProtocol(15)
        rng = random.Random(1)
        live = {0, 1, 2, 4, 5, 6, 9, 10, 12, 13, 14}
        for _ in range(30):
            quorum = protocol.construct_quorum(live, rng)
            if quorum is not None:
                assert quorum <= live


class TestEnumeration:
    def test_count_recurrence(self):
        assert TreeQuorumProtocol(1).quorum_count() == 1
        assert TreeQuorumProtocol(3).quorum_count() == 3
        assert TreeQuorumProtocol(7).quorum_count() == 15
        assert TreeQuorumProtocol(15).quorum_count() == 255

    def test_enumeration_matches_count(self):
        protocol = TreeQuorumProtocol(7)
        quorums = list(protocol.enumerate_quorums())
        assert len(quorums) == 15
        assert len(set(quorums)) == 15

    def test_enumerated_quorums_intersect(self):
        protocol = TreeQuorumProtocol(7)
        assert is_intersecting(list(protocol.enumerate_quorums()))

    def test_construction_result_is_enumerated(self):
        protocol = TreeQuorumProtocol(7)
        quorums = set(protocol.enumerate_quorums())
        rng = random.Random(0)
        for trial in range(30):
            live = {sid for sid in range(7) if rng.random() < 0.7}
            constructed = protocol.construct_quorum(live, rng)
            if constructed is not None:
                # the constructed set contains some minimal quorum
                assert any(q <= constructed for q in quorums)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError, match="exceed"):
            list(TreeQuorumProtocol(63).enumerate_quorums(max_quorums=100))


class TestAnalyticQuantities:
    def test_paper_cost_formula(self):
        assert TreeQuorumProtocol(3).average_cost() == pytest.approx(2.0)
        assert TreeQuorumProtocol(7).average_cost() == pytest.approx(3.5)
        assert TreeQuorumProtocol(1).average_cost() == 1.0

    def test_cost_extremes(self):
        protocol = TreeQuorumProtocol(15)
        assert protocol.min_cost() == 4
        assert protocol.max_cost() == 8

    def test_average_cost_between_extremes(self):
        for n in (7, 15, 31, 63):
            protocol = TreeQuorumProtocol(n)
            assert protocol.min_cost() <= protocol.average_cost() <= protocol.max_cost()

    def test_optimal_load_formula(self):
        assert TreeQuorumProtocol(7).optimal_load() == pytest.approx(0.5)
        assert TreeQuorumProtocol(31).optimal_load() == pytest.approx(2 / 6)

    def test_load_matches_lp(self):
        for n in (3, 7, 15):
            protocol = TreeQuorumProtocol(n)
            lp = optimal_load(
                list(protocol.enumerate_quorums()), universe=range(n)
            )
            assert lp.load == pytest.approx(protocol.optimal_load(), abs=1e-6)

    def test_path_strategy_load_is_one(self):
        assert TreeQuorumProtocol(15).path_strategy_load() == 1.0


class TestAvailability:
    def test_single_node(self):
        assert TreeQuorumProtocol(1).availability(0.8) == pytest.approx(0.8)

    def test_recursion_matches_exact_enumeration(self):
        """A(h) equals P(construct_quorum succeeds) over all live sets."""
        for n in (3, 7):
            protocol = TreeQuorumProtocol(n)
            for p in (0.5, 0.7, 0.9):
                exact = _exact_construction_probability(protocol, p)
                assert protocol.availability(p) == pytest.approx(exact, abs=1e-9)

    def test_availability_better_than_single_replica(self):
        for p in (0.6, 0.8, 0.9):
            assert TreeQuorumProtocol(15).availability(p) > p

    def test_read_write_symmetric(self):
        protocol = TreeQuorumProtocol(7)
        assert protocol.read_availability(0.7) == protocol.write_availability(0.7)
        assert protocol.read_cost() == protocol.write_cost()
        assert protocol.read_load() == protocol.write_load()


def _exact_construction_probability(protocol: TreeQuorumProtocol, p: float) -> float:
    """Brute force over every live/dead configuration."""
    n = protocol.n
    total = 0.0
    for mask in range(1 << n):
        live = {sid for sid in range(n) if mask & (1 << sid)}
        if protocol.construct_quorum(live) is not None:
            probability = 1.0
            for sid in range(n):
                probability *= p if sid in live else 1.0 - p
            total += probability
    return total
