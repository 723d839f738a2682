"""Unit tests for the six Section-4 configurations."""

import math

import pytest

from repro.core.config import (
    ALL_CONFIGURATIONS,
    Configuration,
    admissible_size,
    make_model,
    make_tree,
)
from repro.core.protocol import ArbitraryProtocol
from repro.protocols.hqc import HQCProtocol
from repro.protocols.tree_quorum import TreeQuorumProtocol


class TestAdmissibleSize:
    def test_binary_snaps_to_complete_tree(self):
        assert admissible_size(Configuration.BINARY, 100) == 127
        assert admissible_size(Configuration.BINARY, 70) == 63
        assert admissible_size(Configuration.UNMODIFIED, 31) == 31

    def test_hqc_snaps_to_power_of_three(self):
        assert admissible_size(Configuration.HQC, 100) == 81
        assert admissible_size(Configuration.HQC, 200) == 243
        assert admissible_size(Configuration.HQC, 27) == 27

    def test_arbitrary_accepts_anything(self):
        assert admissible_size(Configuration.ARBITRARY, 97) == 97

    def test_mostly_write_minimum_two(self):
        assert admissible_size(Configuration.MOSTLY_WRITE, 1) == 2

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            admissible_size(Configuration.ARBITRARY, 0)


class TestMakeTree:
    def test_unmodified(self):
        tree = make_tree(Configuration.UNMODIFIED, 15)
        assert tree.physical_level_sizes == (1, 2, 4, 8)

    def test_arbitrary(self):
        tree = make_tree(Configuration.ARBITRARY, 100)
        assert tree.n == 100
        assert tree.physical_level_sizes[:7] == (4,) * 7

    def test_mostly_read(self):
        assert make_tree(Configuration.MOSTLY_READ, 12).num_physical_levels == 1

    def test_mostly_write(self):
        assert make_tree(Configuration.MOSTLY_WRITE, 12).d == 2

    def test_quorum_protocols_have_no_tree(self):
        for config in (Configuration.BINARY, Configuration.HQC):
            with pytest.raises(ValueError, match="not backed"):
                make_tree(config, 27)


class TestMakeModel:
    def test_binary_model_type(self):
        assert isinstance(make_model(Configuration.BINARY, 31), TreeQuorumProtocol)

    def test_hqc_model_type(self):
        assert isinstance(make_model(Configuration.HQC, 27), HQCProtocol)

    def test_tree_models(self):
        for config in (
            Configuration.UNMODIFIED,
            Configuration.ARBITRARY,
            Configuration.MOSTLY_READ,
            Configuration.MOSTLY_WRITE,
        ):
            model = make_model(config, 31)
            assert isinstance(model, ArbitraryProtocol)
            assert model.name == str(config)

    def test_every_model_answers_every_quantity(self):
        for config in ALL_CONFIGURATIONS:
            model = make_model(config, 81)
            assert model.read_cost() > 0
            assert model.write_cost() > 0
            assert 0 < model.read_load() <= 1
            assert 0 < model.write_load() <= 1
            assert 0 <= model.read_availability(0.7) <= 1
            assert 0 <= model.write_availability(0.7) <= 1
            assert 0 <= model.expected_read_load(0.7) <= 1 + 1e-9
            assert 0 <= model.expected_write_load(0.7) <= 1 + 1e-9


class TestModelValues:
    def test_mostly_read_is_rowa(self):
        model = make_model(Configuration.MOSTLY_READ, 20)
        assert model.read_cost() == 1
        assert model.write_cost() == 20
        assert model.write_load() == pytest.approx(1.0)

    def test_unmodified_loads(self):
        model = make_model(Configuration.UNMODIFIED, 63)
        assert model.read_load() == pytest.approx(1.0)
        assert model.write_load() == pytest.approx(1 / 6)

    def test_arbitrary_model_quorums(self):
        model = make_model(Configuration.ARBITRARY, 16)
        reads = list(model.read_quorums())
        writes = list(model.write_quorums())
        assert len(writes) == model.tree.num_physical_levels
        assert len(reads) == math.prod(model.tree.physical_level_sizes)

    def test_binary_costs_match_formula(self):
        model = make_model(Configuration.BINARY, 31)
        h = 4
        expected = (2**h * (1 + h) ** h) / (h * (2 + h) ** (h - 1)) - 2 / h
        assert model.read_cost() == pytest.approx(expected)

    def test_configuration_str(self):
        assert str(Configuration.MOSTLY_READ) == "MOSTLY-READ"
