"""Unit tests for strategies and induced loads (Definitions 2.4-2.5)."""

import pytest

from repro.quorums.base import SetSystem
from repro.quorums.strategy import Strategy, system_load


@pytest.fixture
def rowa_reads():
    return SetSystem([{0}, {1}, {2}, {3}])


@pytest.fixture
def levels_135():
    """Read quorums of the paper's 1-3-5 tree (3 x 5 = 15 quorums)."""
    return SetSystem(
        [{a, b} for a in range(3) for b in range(3, 8)],
        universe=range(8),
    )


class TestStrategyValidation:
    def test_weights_must_match_quorum_count(self, rowa_reads):
        with pytest.raises(ValueError, match="weights"):
            Strategy(rowa_reads, (0.5, 0.5))

    def test_weights_must_sum_to_one(self, rowa_reads):
        with pytest.raises(ValueError, match="sum"):
            Strategy(rowa_reads, (0.5, 0.5, 0.5, 0.5))

    def test_weights_must_be_non_negative(self, rowa_reads):
        with pytest.raises(ValueError, match="non-negative"):
            Strategy(rowa_reads, (1.5, -0.5, 0.0, 0.0))

    def test_valid_strategy(self, rowa_reads):
        Strategy(rowa_reads, (0.25, 0.25, 0.25, 0.25))


class TestUniformStrategy:
    def test_uniform_weights(self, rowa_reads):
        strategy = Strategy.uniform(rowa_reads)
        assert all(w == pytest.approx(0.25) for w in strategy.weights)

    def test_uniform_rowa_load(self, rowa_reads):
        strategy = Strategy.uniform(rowa_reads)
        assert strategy.induced_load() == pytest.approx(1 / 4)

    def test_uniform_135_read_load(self, levels_135):
        """The uniform read strategy loads the thin level at 1/3."""
        strategy = Strategy.uniform(levels_135)
        loads = strategy.element_loads()
        for sid in range(3):
            assert loads[sid] == pytest.approx(1 / 3)
        for sid in range(3, 8):
            assert loads[sid] == pytest.approx(1 / 5)
        assert strategy.induced_load() == pytest.approx(1 / 3)


class TestElementLoads:
    def test_load_of_absent_element_is_zero(self):
        system = SetSystem([{0}], universe={0, 1})
        strategy = Strategy.uniform(system)
        assert strategy.element_load(1) == 0.0

    def test_element_load_matches_mapping(self, levels_135):
        strategy = Strategy.uniform(levels_135)
        loads = strategy.element_loads()
        for element in levels_135.universe:
            assert strategy.element_load(element) == pytest.approx(loads[element])

    def test_loads_sum_to_expected_quorum_size(self, levels_135):
        """sum_i l_w(i) = E[|Q|] for any strategy (double counting)."""
        strategy = Strategy.uniform(levels_135)
        assert sum(strategy.element_loads().values()) == pytest.approx(
            strategy.expected_quorum_size()
        )

    def test_expected_quorum_size(self, levels_135):
        assert Strategy.uniform(levels_135).expected_quorum_size() == pytest.approx(2.0)


class TestFromMapping:
    def test_partial_mapping_fills_zeros(self, rowa_reads):
        strategy = Strategy.from_mapping(rowa_reads, {frozenset({0}): 1.0})
        assert strategy.weights == (1.0, 0.0, 0.0, 0.0)
        assert strategy.induced_load() == pytest.approx(1.0)

    def test_skewed_strategy_load(self, levels_135):
        # all mass on one quorum loads its two members fully
        target = levels_135.quorums[0]
        strategy = Strategy.from_mapping(levels_135, {target: 1.0})
        assert strategy.induced_load() == pytest.approx(1.0)


class TestModuleHelpers:
    def test_system_load_uniform_default(self):
        assert system_load([{0}, {1}]) == pytest.approx(0.5)

    def test_system_load_explicit_weights(self):
        assert system_load([{0}, {1}], weights=[0.9, 0.1]) == pytest.approx(0.9)
