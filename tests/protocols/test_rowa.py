"""Unit tests for ROWA, including equivalence with MOSTLY-READ."""

import pytest

from repro.core.builder import mostly_read
from repro.core.protocol import ArbitraryProtocol
from repro.protocols.rowa import RowaProtocol
from repro.quorums.base import BiCoterie
from repro.quorums.load import optimal_load


@pytest.fixture
def rowa():
    return RowaProtocol(6)


class TestQuantities:
    def test_costs(self, rowa):
        assert rowa.read_cost() == 1
        assert rowa.write_cost() == 6

    def test_loads(self, rowa):
        assert rowa.read_load() == pytest.approx(1 / 6)
        assert rowa.write_load() == 1.0

    def test_availability(self, rowa):
        p = 0.8
        assert rowa.read_availability(p) == pytest.approx(1 - 0.2**6)
        assert rowa.write_availability(p) == pytest.approx(0.8**6)

    def test_single_replica(self):
        solo = RowaProtocol(1)
        assert solo.read_cost() == solo.write_cost() == 1
        assert solo.read_availability(0.9) == pytest.approx(0.9)

    def test_rejects_zero_replicas(self):
        with pytest.raises(ValueError):
            RowaProtocol(0)


class TestQuorums:
    def test_read_quorums_are_singletons(self, rowa):
        reads = list(rowa.read_quorums())
        assert len(reads) == 6
        assert all(len(q) == 1 for q in reads)

    def test_write_quorum_is_everything(self, rowa):
        writes = list(rowa.write_quorums())
        assert writes == [frozenset(range(6))]

    def test_forms_a_bicoterie(self, rowa):
        assert isinstance(rowa.bicoterie(), BiCoterie)

    def test_loads_are_lp_optimal(self, rowa):
        reads = optimal_load(list(rowa.read_quorums()), universe=range(6))
        writes = optimal_load(list(rowa.write_quorums()), universe=range(6))
        assert reads.load == pytest.approx(rowa.read_load())
        assert writes.load == pytest.approx(rowa.write_load())


class TestMostlyReadEquivalence:
    """The MOSTLY-READ configuration behaves exactly like ROWA (Section 4)."""

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_all_quantities_agree(self, n):
        rowa = RowaProtocol(n)
        model = ArbitraryProtocol(mostly_read(n), name="MOSTLY-READ")
        assert model.read_cost() == rowa.read_cost()
        assert model.write_cost() == rowa.write_cost()
        assert model.read_load() == pytest.approx(rowa.read_load())
        assert model.write_load() == pytest.approx(rowa.write_load())
        for p in (0.6, 0.8, 0.95):
            assert model.read_availability(p) == pytest.approx(
                rowa.read_availability(p)
            )
            assert model.write_availability(p) == pytest.approx(
                rowa.write_availability(p)
            )

    def test_quorum_sets_identical(self):
        rowa = RowaProtocol(4)
        model = ArbitraryProtocol(mostly_read(4))
        assert set(model.read_quorums()) == set(rowa.read_quorums())
        assert set(model.write_quorums()) == set(rowa.write_quorums())
