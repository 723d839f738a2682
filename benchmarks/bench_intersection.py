"""Section 3.2.3: the bi-coterie property, checked exhaustively.

The paper proves by induction that every read quorum intersects every write
quorum.  This bench re-validates the property from first principles (full
enumeration and pairwise checks) across a zoo of tree shapes, and times the
validation as the measured workload.
"""

from __future__ import annotations

from repro.core.builder import (
    from_spec,
    mostly_read,
    mostly_write,
    recommended_tree,
    sqrt_levels,
    unmodified_binary,
)
from repro.core.protocol import ArbitraryProtocol
from repro.quorums.base import is_cross_intersecting

TREES = (
    [from_spec(spec) for spec in ("1-3-5", "1-2-2-2", "1-4-4", "P1-2-4", "1-9")]
    + [mostly_read(n) for n in (2, 8, 33)]
    + [mostly_write(n) for n in (5, 9, 15)]
    + [sqrt_levels(n) for n in (6, 12, 20, 30)]
    + [recommended_tree(40), unmodified_binary(15)]
)


def _check_tree(tree) -> int:
    protocol = ArbitraryProtocol(tree)
    reads = list(protocol.read_quorums())
    writes = protocol.write_quorums()
    assert is_cross_intersecting(reads, writes)
    return len(reads)


def test_all_trees_are_bicoteries(emit, benchmark):
    total = benchmark(lambda: sum(_check_tree(tree) for tree in TREES))
    emit(
        "intersection",
        f"bi-coterie property verified on {len(TREES)} trees, "
        f"{total} read quorums enumerated per round",
    )
    assert total > 0


def test_every_read_quorum_hits_every_level(benchmark):
    tree = from_spec("1-3-5")
    protocol = ArbitraryProtocol(tree)

    def check():
        for read in protocol.read_quorums():
            for k in tree.physical_levels:
                assert len(read & set(tree.replica_ids_at(k))) == 1
        return True

    assert benchmark(check)


def test_write_quorums_partition_universe(benchmark):
    tree = recommended_tree(40)
    protocol = ArbitraryProtocol(tree)

    def check():
        writes = protocol.write_quorums()
        union = frozenset().union(*writes)
        assert union == protocol.universe
        total = sum(len(w) for w in writes)
        assert total == tree.n  # pairwise disjoint
        return True

    assert benchmark(check)
