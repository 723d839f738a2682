"""Unit tests for the grid and finite-projective-plane protocols."""

import math

import pytest

from repro.protocols.fpp import (
    FiniteProjectivePlaneProtocol,
    fpp_sizes,
    is_prime,
    plane_order,
)
from repro.protocols.grid import GridProtocol
from repro.quorums.availability import exact_availability
from repro.quorums.base import is_cross_intersecting, is_intersecting
from repro.quorums.load import optimal_load


class TestGridStructure:
    def test_square_default(self):
        grid = GridProtocol(16)
        assert grid.rows == grid.cols == 4

    def test_non_square_rejected_without_dims(self):
        with pytest.raises(ValueError, match="square"):
            GridProtocol(10)

    def test_explicit_rectangle(self):
        grid = GridProtocol(12, rows=3)
        assert grid.cols == 4

    def test_dims_must_multiply(self):
        with pytest.raises(ValueError, match="does not hold"):
            GridProtocol(10, rows=3, cols=4)

    def test_sid_layout(self):
        grid = GridProtocol(9)
        assert grid.sid(0, 0) == 0
        assert grid.sid(2, 1) == 7
        with pytest.raises(IndexError):
            grid.sid(3, 0)

    def test_column(self):
        grid = GridProtocol(9)
        assert grid.column(1) == frozenset({1, 4, 7})


class TestGridQuorums:
    def test_read_quorum_count(self):
        grid = GridProtocol(9)
        assert len(list(grid.read_quorums())) == 27  # rows^cols

    def test_read_quorums_cover_columns(self):
        grid = GridProtocol(9)
        for quorum in grid.read_quorums():
            assert len(quorum) == 3
            for col in range(3):
                assert quorum & grid.column(col)

    def test_write_quorum_shape(self):
        grid = GridProtocol(9)
        for quorum in grid.write_quorums():
            assert len(quorum) == 5  # rows + cols - 1

    def test_bicoterie_property(self):
        grid = GridProtocol(9)
        assert is_cross_intersecting(
            list(grid.read_quorums()), list(grid.write_quorums())
        )

    def test_writes_intersect_each_other(self):
        grid = GridProtocol(9)
        assert is_intersecting(list(grid.write_quorums()))


class TestGridQuantities:
    def test_costs(self):
        grid = GridProtocol(25)
        assert grid.read_cost() == 5
        assert grid.write_cost() == 9

    def test_read_load_is_optimal_sqrt_n(self):
        grid = GridProtocol(9)
        lp = optimal_load(list(grid.read_quorums()), universe=range(9))
        assert lp.load == pytest.approx(grid.read_load())
        assert grid.read_load() == pytest.approx(1 / 3)

    def test_availability_formulas_match_exact(self):
        grid = GridProtocol(9)
        for p in (0.6, 0.8):
            exact_read = exact_availability(
                list(grid.read_quorums()), p, universe=range(9)
            )
            exact_write = exact_availability(
                list(grid.write_quorums()), p, universe=range(9)
            )
            assert grid.read_availability(p) == pytest.approx(exact_read, abs=1e-9)
            assert grid.write_availability(p) == pytest.approx(exact_write, abs=1e-9)


class TestFppStructure:
    def test_is_prime(self):
        assert [x for x in range(2, 12) if is_prime(x)] == [2, 3, 5, 7, 11]
        assert not is_prime(1)

    def test_plane_order(self):
        assert plane_order(7) == 2
        assert plane_order(13) == 3
        assert plane_order(31) == 5

    def test_invalid_sizes(self):
        with pytest.raises(ValueError, match="q\\^2"):
            plane_order(10)

    def test_non_prime_order_rejected(self):
        # q = 6 -> n = 43; 6 is not prime (and no plane of order 6 exists)
        with pytest.raises(ValueError, match="not prime"):
            plane_order(43)

    def test_sizes_helper(self):
        assert fpp_sizes(5) == [7, 13, 31]


class TestFppQuorums:
    @pytest.mark.parametrize("n", [7, 13, 31])
    def test_plane_axioms(self, n):
        protocol = FiniteProjectivePlaneProtocol(n)
        lines = list(protocol.read_quorums())
        q = protocol.order
        assert len(lines) == n
        for line in lines:
            assert len(line) == q + 1
        # any two lines meet in exactly one point
        for i, a in enumerate(lines):
            for b in lines[i + 1:]:
                assert len(a & b) == 1

    def test_each_point_on_q_plus_1_lines(self):
        protocol = FiniteProjectivePlaneProtocol(13)
        counts = {sid: 0 for sid in range(13)}
        for line in protocol.read_quorums():
            for sid in line:
                counts[sid] += 1
        assert set(counts.values()) == {4}

    def test_writes_use_the_same_lines(self):
        protocol = FiniteProjectivePlaneProtocol(7)
        lines = list(protocol.read_quorums())
        assert list(protocol.write_quorums()) == lines
        assert protocol.select_write_quorum(set(range(7)) - {0}) in lines

    def test_load_is_lp_optimal_sqrt_n(self):
        protocol = FiniteProjectivePlaneProtocol(13)
        lp = optimal_load(list(protocol.read_quorums()), universe=range(13))
        assert lp.load == pytest.approx(protocol.read_load(), abs=1e-6)
        assert protocol.read_load() == pytest.approx(4 / 13)
        assert protocol.read_load() == pytest.approx(1 / math.sqrt(13), abs=0.05)

    def test_costs(self):
        protocol = FiniteProjectivePlaneProtocol(31)
        assert protocol.read_cost() == 6
        assert protocol.write_cost() == 6

    def test_availability(self):
        protocol = FiniteProjectivePlaneProtocol(7)
        value = protocol.read_availability(0.9)
        exact = exact_availability(
            list(protocol.read_quorums()), 0.9, universe=range(7)
        )
        assert value == pytest.approx(exact, abs=1e-9)
        assert protocol.write_availability(0.9) == value
