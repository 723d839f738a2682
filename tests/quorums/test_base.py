"""Unit tests for set systems, quorum systems, coteries and bi-coteries."""

import pytest

from repro.quorums.base import (
    BiCoterie,
    Coterie,
    QuorumSystem,
    SetSystem,
    is_antichain,
    is_cross_intersecting,
    is_intersecting,
)


class TestIsIntersecting:
    def test_single_set_is_intersecting(self):
        assert is_intersecting([{1, 2}])

    def test_overlapping_pair(self):
        assert is_intersecting([{1, 2}, {2, 3}])

    def test_disjoint_pair(self):
        assert not is_intersecting([{1, 2}, {3, 4}])

    def test_majorities_intersect(self):
        from itertools import combinations

        majorities = [set(c) for c in combinations(range(5), 3)]
        assert is_intersecting(majorities)

    def test_one_disjoint_pair_among_many(self):
        assert not is_intersecting([{1, 2}, {2, 3}, {4, 5}])

    def test_non_integer_elements_take_the_set_path(self):
        # Only integer universes pack onto the bitset kernel.
        assert is_intersecting([{"a", "b"}, {"b", "c"}])
        assert not is_intersecting([{"a"}, {"b"}])


class TestIsAntichain:
    def test_incomparable_sets(self):
        assert is_antichain([{1, 2}, {2, 3}, {1, 3}])

    def test_subset_violates(self):
        assert not is_antichain([{1}, {1, 2}])

    def test_duplicates_violate(self):
        assert not is_antichain([{1, 2}, {1, 2}])

    def test_single_set(self):
        assert is_antichain([{1, 2, 3}])

    def test_non_integer_elements_take_the_set_path(self):
        assert is_antichain([{"a", "b"}, {"b", "c"}])
        assert not is_antichain([{"a"}, {"a", "b"}])


class TestIsCrossIntersecting:
    def test_rowa_shape(self):
        reads = [{0}, {1}, {2}]
        writes = [{0, 1, 2}]
        assert is_cross_intersecting(reads, writes)

    def test_disjoint_read_write(self):
        assert not is_cross_intersecting([{0}], [{1, 2}])

    def test_levels_shape(self):
        reads = [{0, 3}, {0, 4}, {1, 3}, {1, 4}, {2, 3}, {2, 4}]
        writes = [{0, 1, 2}, {3, 4}]
        assert is_cross_intersecting(reads, writes)


class TestSetSystem:
    def test_universe_defaults_to_union(self):
        system = SetSystem([{1, 2}, {2, 3}])
        assert system.universe == frozenset({1, 2, 3})

    def test_explicit_universe(self):
        system = SetSystem([{1}], universe={1, 2, 3})
        assert system.universe == frozenset({1, 2, 3})

    def test_rejects_empty_collection(self):
        with pytest.raises(ValueError, match="at least one set"):
            SetSystem([])

    def test_rejects_empty_quorum(self):
        with pytest.raises(ValueError, match="non-empty"):
            SetSystem([set()])

    def test_rejects_stray_elements(self):
        with pytest.raises(ValueError, match="outside universe"):
            SetSystem([{1, 9}], universe={1, 2})

    def test_len_iter_contains(self):
        system = SetSystem([{1, 2}, {2, 3}])
        assert len(system) == 2
        assert frozenset({1, 2}) in system
        assert {3, 4} not in system
        assert list(system) == [frozenset({1, 2}), frozenset({2, 3})]

    def test_quorum_size_extremes(self):
        system = SetSystem([{1}, {1, 2, 3}])
        assert system.smallest_quorum_size() == 1
        assert system.largest_quorum_size() == 3

    def test_element_frequencies(self):
        system = SetSystem([{1, 2}, {2, 3}], universe={1, 2, 3, 4})
        assert system.element_frequencies() == {1: 1, 2: 2, 3: 1, 4: 0}

    def test_repr(self):
        assert "m=2" in repr(SetSystem([{1}, {2, 1}]))


class TestQuorumSystem:
    def test_accepts_intersecting(self):
        QuorumSystem([{1, 2}, {2, 3}])

    def test_rejects_disjoint(self):
        with pytest.raises(ValueError, match="intersection"):
            QuorumSystem([{1}, {2}])


class TestCoterie:
    def test_accepts_minimal(self):
        Coterie([{1, 2}, {2, 3}, {1, 3}])

    def test_rejects_dominated(self):
        with pytest.raises(ValueError, match="minimality"):
            Coterie([{1, 2}, {1, 2, 3}])


class TestBiCoterie:
    def test_valid_bicoterie(self):
        bc = BiCoterie([{0}, {1}], [{0, 1}])
        assert len(bc.read_quorums) == 2
        assert len(bc.write_quorums) == 1

    def test_rejects_non_intersecting(self):
        with pytest.raises(ValueError, match="intersection"):
            BiCoterie([{0}], [{1}])

    def test_rejects_empty_reads(self):
        with pytest.raises(ValueError, match="read quorum"):
            BiCoterie([], [{0}])

    def test_rejects_empty_writes(self):
        with pytest.raises(ValueError, match="write quorum"):
            BiCoterie([{0}], [])

    def test_rejects_empty_quorum(self):
        with pytest.raises(ValueError, match="non-empty"):
            BiCoterie([set()], [{0}])

    def test_rejects_stray_elements(self):
        with pytest.raises(ValueError, match="outside universe"):
            BiCoterie([{0}], [{0, 5}], universe={0, 1})

    def test_reads_need_not_intersect_each_other(self):
        bc = BiCoterie([{0}, {1}], [{0, 1}])
        assert not bc.reads_intersect()
        assert bc.writes_intersect()

    def test_writes_intersect_detection(self):
        bc = BiCoterie(
            [{0, 2}, {1, 2}], [{0, 1, 2}, {2}],
        )
        assert bc.writes_intersect()

    def test_disjoint_writes_detected(self):
        # level-style writes are pairwise disjoint
        bc = BiCoterie([{0, 2}, {1, 2}, {0, 3}, {1, 3}], [{0, 1}, {2, 3}])
        assert not bc.writes_intersect()

    def test_as_systems(self):
        bc = BiCoterie([{0}, {1}], [{0, 1}])
        assert len(bc.as_read_system()) == 2
        assert len(bc.as_write_system()) == 1
        assert bc.as_read_system().universe == bc.universe

    def test_repr(self):
        bc = BiCoterie([{0}], [{0}])
        assert "m_R=1" in repr(bc)
