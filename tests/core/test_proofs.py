"""Unit tests for the executable appendix proofs."""

import pytest

from repro.core.builder import (
    from_spec,
    mostly_read,
    mostly_write,
    recommended_tree,
)
from repro.core.proofs import (
    prove_lower_bound_for_binary_tree,
    prove_read_load,
    prove_write_load,
    read_witness,
    write_witness,
)
from repro.quorums.load import optimal_load
from repro.core.protocol import ArbitraryProtocol

TREES = [
    from_spec("1-3-5"),
    from_spec("1-2-2-2"),
    from_spec("P1-2-4"),
    mostly_read(9),
    mostly_write(9),
    recommended_tree(30),
]


class TestWitnessConstruction:
    def test_read_witness_is_distribution(self):
        for tree in TREES:
            witness = read_witness(tree)
            assert sum(witness.values()) == pytest.approx(1.0)
            assert len(witness) == tree.d

    def test_write_witness_is_distribution(self):
        for tree in TREES:
            witness = write_witness(tree)
            assert sum(witness.values()) == pytest.approx(1.0)
            assert len(witness) == tree.num_physical_levels

    def test_write_witness_one_per_level(self):
        tree = from_spec("1-3-5")
        witness = write_witness(tree)
        for level in tree.physical_levels:
            members = set(tree.replica_ids_at(level))
            assert len(members & set(witness)) == 1


class TestProofs:
    @pytest.mark.parametrize("tree", TREES, ids=lambda t: t.spec())
    def test_read_proof_holds(self, tree):
        proof = prove_read_load(tree)
        assert proof.optimal
        assert proof.strategy_load == pytest.approx(proof.claimed_load)

    @pytest.mark.parametrize("tree", TREES, ids=lambda t: t.spec())
    def test_write_proof_holds(self, tree):
        proof = prove_write_load(tree)
        assert proof.optimal
        assert proof.strategy_load == pytest.approx(proof.claimed_load)

    def test_proof_agrees_with_lp(self):
        tree = from_spec("1-3-5")
        protocol = ArbitraryProtocol(tree)
        proof = prove_read_load(tree)
        lp = optimal_load(
            list(protocol.read_quorums()), universe=protocol.universe
        )
        assert proof.claimed_load == pytest.approx(lp.load, abs=1e-6)

    def test_materialisation_guard(self):
        with pytest.raises(ValueError, match="exceed"):
            prove_read_load(recommended_tree(100), max_quorums=10)

    def test_wrong_witness_fails_lower_bound(self):
        """Sanity: the verifier rejects a bogus certificate."""
        from repro.quorums.base import SetSystem
        from repro.quorums.load import verify_load_witness

        tree = from_spec("1-3-5")
        protocol = ArbitraryProtocol(tree)
        system = SetSystem(protocol.read_quorums(), universe=protocol.universe)
        bogus = {0: 1.0}  # all mass on one replica of the thin level
        # claims load 1/3 but the quorum {1, 3} carries zero witness mass
        assert not verify_load_witness(system, bogus, 1 / 3)


class TestLowerBound:
    @pytest.mark.parametrize("n", [3, 7, 15, 31, 63])
    def test_strictly_below_naor_wool(self, n):
        import math

        ours, naor_wool, strictly_lower = prove_lower_bound_for_binary_tree(n)
        assert strictly_lower
        assert ours == pytest.approx(1.0 / math.log2(n + 1))
        assert naor_wool == pytest.approx(2.0 / (math.log2(n + 1) + 1))

    def test_values_for_n_7(self):
        ours, naor_wool, _ = prove_lower_bound_for_binary_tree(7)
        assert ours == pytest.approx(1 / 3)
        assert naor_wool == pytest.approx(1 / 2)
