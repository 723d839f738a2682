"""Unit tests for the majority quorum protocol."""

import math

import pytest

from repro.protocols.majority import MajorityProtocol
from repro.quorums.availability import exact_availability
from repro.quorums.base import is_intersecting
from repro.quorums.load import optimal_load


class TestThresholds:
    def test_default_simple_majority_odd(self):
        protocol = MajorityProtocol(5)
        assert protocol.read_threshold == 3
        assert protocol.write_threshold == 3

    def test_default_simple_majority_even(self):
        protocol = MajorityProtocol(6)
        assert protocol.read_threshold == 4

    def test_paper_cost_for_odd_n(self):
        """Both operations cost (n+1)/2 for odd n (the intro's figure)."""
        for n in (3, 5, 7, 9):
            protocol = MajorityProtocol(n)
            assert protocol.read_cost() == (n + 1) / 2
            assert protocol.write_cost() == (n + 1) / 2

    def test_asymmetric_thresholds(self):
        protocol = MajorityProtocol(5, read_threshold=2, write_threshold=4)
        assert protocol.read_cost() == 2
        assert protocol.write_cost() == 4

    def test_read_write_intersection_enforced(self):
        with pytest.raises(ValueError, match="read/write"):
            MajorityProtocol(5, read_threshold=2, write_threshold=3)

    def test_write_write_intersection_enforced(self):
        with pytest.raises(ValueError, match="Concurrent|concurrent"):
            MajorityProtocol(6, read_threshold=5, write_threshold=3)

    def test_threshold_range_enforced(self):
        with pytest.raises(ValueError, match="thresholds"):
            MajorityProtocol(5, read_threshold=0, write_threshold=5)


class TestQuantities:
    def test_load_at_least_half(self):
        """The intro: majority systems impose load >= 0.5."""
        for n in (3, 5, 9, 15):
            assert MajorityProtocol(n).write_load() >= 0.5

    def test_load_formula(self):
        protocol = MajorityProtocol(7)
        assert protocol.read_load() == pytest.approx(4 / 7)

    def test_availability_binomial_tail(self):
        protocol = MajorityProtocol(5)
        p = 0.75
        expected = sum(
            math.comb(5, k) * p**k * (1 - p) ** (5 - k) for k in range(3, 6)
        )
        assert protocol.read_availability(p) == pytest.approx(expected)

    def test_availability_grows_with_n_for_good_p(self):
        values = [MajorityProtocol(n).write_availability(0.8) for n in (3, 9, 21)]
        assert values == sorted(values)

    def test_availability_matches_exact_enumeration(self):
        protocol = MajorityProtocol(5)
        exact = exact_availability(
            list(protocol.read_quorums()), 0.7, universe=range(5)
        )
        assert protocol.read_availability(0.7) == pytest.approx(exact)


class TestQuorums:
    def test_quorum_count(self):
        protocol = MajorityProtocol(5)
        assert len(list(protocol.read_quorums())) == math.comb(5, 3)

    def test_quorums_intersect(self):
        protocol = MajorityProtocol(5)
        assert is_intersecting(list(protocol.write_quorums()))

    def test_load_is_lp_optimal(self):
        protocol = MajorityProtocol(5)
        lp = optimal_load(list(protocol.read_quorums()), universe=range(5))
        assert lp.load == pytest.approx(protocol.read_load())

    def test_asymmetric_quorums_cross_intersect(self):
        protocol = MajorityProtocol(5, read_threshold=2, write_threshold=4)
        reads = list(protocol.read_quorums())
        writes = list(protocol.write_quorums())
        for read in reads:
            for write in writes:
                assert read & write
