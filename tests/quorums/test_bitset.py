"""Unit tests for the packed-integer quorum kernel (repro.quorums.bitset)."""

import random

import numpy as np
import pytest

from repro.quorums.bitset import (
    PackedQuorums,
    _popcount_by_table,
    pack_bool_matrix,
    pack_rows,
    try_pack,
    try_pack_pair,
)


def words_of(mask, words):
    """A Python int bitmask as its little-endian 64-bit words."""
    return [(mask >> (64 * word)) & (2**64 - 1) for word in range(words)]


def live_words(mask, words):
    """A live-set bitmask as the uint64 row :meth:`live_filter` takes."""
    return np.array(words_of(mask, words), dtype=np.uint64)


class TestPackingRoundTrip:
    def test_masks_and_frozensets_round_trip(self):
        quorums = [{0, 2, 5}, {1}, {0, 1, 2, 3, 4, 5}]
        packed = PackedQuorums.from_quorums(quorums, universe=range(6))
        assert packed.to_frozensets() == tuple(frozenset(q) for q in quorums)
        assert packed.matrix[:, 0].tolist() == [0b100101, 0b000010, 0b111111]

    def test_non_contiguous_universe(self):
        packed = PackedQuorums.from_quorums(
            [{10, 30}, {20}], universe={10, 20, 30}
        )
        # Sorted universe -> bit order 10, 20, 30.
        assert packed.matrix[:, 0].tolist() == [0b101, 0b010]
        assert packed.to_frozensets() == (frozenset({10, 30}), frozenset({20}))

    def test_multi_word_round_trip(self):
        # n = 130 spans three 64-bit words.
        quorums = [{0, 63, 64, 129}, {65}, set(range(130))]
        packed = PackedQuorums.from_quorums(quorums, universe=range(130))
        assert packed.words == 3
        assert packed.to_frozensets() == tuple(frozenset(q) for q in quorums)
        expected = (1 << 0) | (1 << 63) | (1 << 64) | (1 << 129)
        assert packed.matrix[0].tolist() == words_of(expected, 3)

    def test_pack_rows_matches_from_quorums(self):
        quorums = [frozenset({1, 2}), frozenset({0, 2})]
        packed = PackedQuorums.from_quorums(quorums, universe=range(3))
        rows = pack_rows(quorums, packed.index, packed.words)
        assert (rows == packed.matrix).all()


class TestKernelOps:
    def test_table_popcount_counts_every_bit(self):
        # The numpy < 2.0 path: no ``np.bitwise_count`` there.
        rng = random.Random(5)
        values = [rng.getrandbits(64) for _ in range(40)] + [0, 2**64 - 1]
        words = np.array(values, dtype=np.uint64).reshape(6, 7)
        assert _popcount_by_table(words).tolist() == [
            [bin(value).count("1") for value in values[row:row + 7]]
            for row in range(0, 42, 7)
        ]

    def test_membership_matrix_matches_cells(self):
        quorums = [{0, 2}, {1, 2}, {2}]
        packed = PackedQuorums.from_quorums(quorums, universe=range(3))
        matrix = packed.membership_matrix()
        assert matrix.shape == (3, 3)
        for col, quorum in enumerate(quorums):
            for row, element in enumerate(range(3)):
                assert matrix[row, col] == (1.0 if element in quorum else 0.0)

    def test_live_filter_subset_semantics(self):
        packed = PackedQuorums.from_quorums(
            [{0, 1}, {2}, {0, 2}], universe=range(3)
        )
        live = live_words(0b101, packed.words)
        assert packed.live_filter(live).tolist() == [False, True, True]

    def test_live_filter_empty_live_set(self):
        packed = PackedQuorums.from_quorums([{0}, {1, 2}], universe=range(3))
        live = live_words(0, packed.words)
        assert not packed.live_filter(live).any()

    def test_n_equals_one(self):
        packed = PackedQuorums.from_quorums([{0}], universe={0})
        assert packed.n == 1 and packed.words == 1
        assert packed.matrix.tolist() == [[1]]
        assert packed.live_filter(live_words(1, 1)).tolist() == [True]
        assert packed.live_filter(live_words(0, 1)).tolist() == [False]

    def test_multi_word_live_filter(self):
        quorums = [{0, 100}, {64, 65}, {127}]
        packed = PackedQuorums.from_quorums(quorums, universe=range(128))
        mask = (1 << 0) | (1 << 100) | (1 << 127)
        assert packed.live_filter(live_words(mask, 2)).tolist() == [
            True, False, True
        ]
        # The int-mask filter selection runs (``q & live == q``) agrees.
        masks = [sum(1 << element for element in q) for q in quorums]
        assert [q & mask == q for q in masks] == [True, False, True]

    def test_cross_intersects_requires_shared_universe(self):
        a = PackedQuorums.from_quorums([{0}], universe=range(2))
        b = PackedQuorums.from_quorums([{0}], universe=range(3))
        with pytest.raises(ValueError):
            a.cross_intersects(b)

    def test_cross_intersects_multi_word(self):
        reads = [{0, 70}, {1, 71}]
        writes = [{0, 1}, {70, 71}]
        packed_reads, packed_writes = try_pack_pair(reads, writes)
        assert packed_reads.cross_intersects(packed_writes)
        packed_reads, packed_writes = try_pack_pair(reads, [{2, 72}])
        assert not packed_reads.cross_intersects(packed_writes)


class TestBoolPacking:
    def test_pack_bool_matrix_matches_masks(self):
        rng = np.random.default_rng(5)
        for n in (1, 8, 64, 65, 130):
            alive = rng.random((17, n)) < 0.6
            words = pack_bool_matrix(alive)
            assert words.shape == (17, max(1, -(-n // 64)))
            for row in range(17):
                expected = sum(1 << i for i in range(n) if alive[row, i])
                assert words[row].tolist() == words_of(
                    expected, words.shape[1]
                )


class TestDispatch:
    def test_try_pack_rejects_non_integer_universe(self):
        assert try_pack([{"a", "b"}, {"b"}]) is None
        assert try_pack_pair([{"a"}], [{"a"}]) is None

    def test_try_pack_accepts_negative_ints(self):
        packed = try_pack([{-3, 4}, {0}])
        assert packed is not None
        assert packed.to_frozensets() == (frozenset({-3, 4}), frozenset({0}))


class TestFromSystem:
    """The quorum_masks fast path must be a mask twin of quorums(op)."""

    @pytest.mark.parametrize(
        "protocol,n",
        [("majority", 5), ("majority", 13), ("grid", 9), ("grid", 16),
         ("arbitrary", 13)],
    )
    @pytest.mark.parametrize("op", ["read", "write"])
    def test_masks_path_matches_frozenset_path(self, protocol, n, op):
        from repro.protocols.zoo import quorum_system

        system = quorum_system(protocol, n)
        assert system.quorum_masks(op) is not None
        via_masks = PackedQuorums.from_system(system, op)
        via_sets = PackedQuorums.from_quorums(
            system.quorums(op), universe=system.universe
        )
        assert via_masks.elements == via_sets.elements
        # Same matrix AND same row order: enumeration-order consumers
        # (selection's RNG-stream agreement) depend on both.
        assert (via_masks.matrix == via_sets.matrix).all()

    def test_systems_without_the_hook_fall_back(self):
        from repro.protocols.zoo import quorum_system

        system = quorum_system("hqc", 9)
        assert system.quorum_masks("read") is None
        packed = PackedQuorums.from_system(system, "read")
        reference = PackedQuorums.from_quorums(
            system.quorums("read"), universe=system.universe
        )
        assert (packed.matrix == reference.matrix).all()

    def test_quorum_masks_rejects_unknown_op(self):
        from repro.protocols.zoo import quorum_system

        with pytest.raises(ValueError, match="op"):
            quorum_system("majority", 5).quorum_masks("scan")
