"""Unit tests for the arbitrary tree structure (Section 3.1)."""

import pytest

from repro.core.builder import from_spec
from repro.core.tree import (
    ArbitraryTree,
    AssumptionViolation,
    NodeKind,
    TreeNode,
)


@pytest.fixture
def paper_tree():
    """The exact Figure 1 tree, including the 4 logical level-2 nodes."""
    return ArbitraryTree.from_level_counts([0, 3, 5], [1, 0, 4])


class TestConstruction:
    def test_level_counts(self, paper_tree):
        assert paper_tree.m(0) == 1
        assert paper_tree.m(1) == 3
        assert paper_tree.m(2) == 9

    def test_physical_counts(self, paper_tree):
        assert [paper_tree.m_phy(k) for k in range(3)] == [0, 3, 5]

    def test_logical_counts(self, paper_tree):
        assert [paper_tree.m_log(k) for k in range(3)] == [1, 0, 4]

    def test_n_counts_physical_nodes_only(self, paper_tree):
        assert paper_tree.n == 8

    def test_height(self, paper_tree):
        assert paper_tree.height == 2

    def test_root(self, paper_tree):
        assert paper_tree.root.is_logical
        assert paper_tree.root.level == 0
        assert paper_tree.root.parent is None

    def test_mismatched_count_vectors_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            ArbitraryTree.from_level_counts([0, 3], [1])

    def test_empty_level_rejected(self):
        with pytest.raises(ValueError, match="no nodes"):
            ArbitraryTree.from_level_counts([0, 0], [1, 0])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ArbitraryTree.from_level_counts([0, -1], [1, 2])

    def test_multi_node_root_rejected(self):
        with pytest.raises(ValueError, match="root"):
            ArbitraryTree.from_level_counts([2], [0])


class TestNodeIndexing:
    def test_s_i_k_indexing_is_one_based(self, paper_tree):
        node = paper_tree.node(1, 1)
        assert node.index == 1 and node.level == 1

    def test_physical_before_logical_within_level(self, paper_tree):
        kinds = [node.kind for node in paper_tree.levels[2]]
        assert kinds[:5] == [NodeKind.PHYSICAL] * 5
        assert kinds[5:] == [NodeKind.LOGICAL] * 4

    def test_replica_ids_assigned_in_level_order(self, paper_tree):
        assert paper_tree.replica_ids_at(1) == (0, 1, 2)
        assert paper_tree.replica_ids_at(2) == (3, 4, 5, 6, 7)

    def test_logical_nodes_have_no_replica_id(self, paper_tree):
        assert paper_tree.root.replica_id is None

    def test_level_of_replica(self, paper_tree):
        assert paper_tree.level_of_replica(0) == 1
        assert paper_tree.level_of_replica(7) == 2
        with pytest.raises(KeyError):
            paper_tree.level_of_replica(99)

    def test_parent_child_wiring(self, paper_tree):
        for level in paper_tree.levels[1:]:
            for node in level:
                assert node.parent is not None
                assert node in node.parent.children

    def test_descendant_counts(self, paper_tree):
        root = paper_tree.root
        assert len(root.children) == 3
        total_level2 = sum(
            len(node.children) for node in paper_tree.levels[1]
        )
        assert total_level2 == 9

    def test_leaves_have_no_children(self, paper_tree):
        for node in paper_tree.levels[2]:
            assert not node.children


class TestPaperNotation:
    def test_k_phy(self, paper_tree):
        assert paper_tree.physical_levels == (1, 2)

    def test_k_log(self, paper_tree):
        assert paper_tree.logical_levels == (0,)

    def test_level_count_identity(self, paper_tree):
        """|K_log| + |K_phy| = 1 + h."""
        assert (
            paper_tree.num_logical_levels + paper_tree.num_physical_levels
            == 1 + paper_tree.height
        )

    def test_d_and_e(self, paper_tree):
        assert paper_tree.d == 3
        assert paper_tree.e == 5

    def test_physical_level_sizes(self, paper_tree):
        assert paper_tree.physical_level_sizes == (3, 5)

    def test_level_table_matches_table1(self, paper_tree):
        rows = paper_tree.level_table()
        assert [(r.total, r.physical, r.logical) for r in rows] == [
            (1, 0, 1), (3, 3, 0), (9, 5, 4),
        ]

    def test_spec_rendering(self, paper_tree):
        assert paper_tree.spec() == "1-3-5"

    def test_spec_physical_root(self):
        tree = ArbitraryTree.from_level_counts([1, 2, 4])
        assert tree.spec() == "P1-2-4"

    def test_describe_mentions_levels(self, paper_tree):
        text = paper_tree.describe()
        assert "level 0" in text and "level 2" in text

    def test_repr(self, paper_tree):
        assert "1-3-5" in repr(paper_tree)


class TestAssumption31:
    def test_non_decreasing_ok(self):
        assert from_spec("1-2-2-5").satisfies_assumption()

    def test_decreasing_rejected(self):
        with pytest.raises(AssumptionViolation, match="non-decreasing"):
            ArbitraryTree.from_level_counts([0, 5, 3], [1, 0, 0])

    def test_physical_root_must_be_strictly_smaller(self):
        with pytest.raises(AssumptionViolation, match="strictly smaller"):
            ArbitraryTree.from_level_counts([1, 1])

    def test_interior_logical_level_rejected(self):
        with pytest.raises(AssumptionViolation, match="between physical"):
            ArbitraryTree.from_level_counts([0, 2, 0, 2], [1, 0, 1, 0])

    def test_validation_can_be_disabled(self):
        tree = ArbitraryTree.from_level_counts(
            [0, 5, 3], [1, 0, 0], validate_assumption=False
        )
        assert not tree.satisfies_assumption()

    def test_single_level_always_ok(self):
        assert from_spec("1-7").satisfies_assumption()


class TestIterationHelpers:
    def test_nodes_in_level_order(self, paper_tree):
        nodes = list(paper_tree.nodes())
        assert len(nodes) == 13  # 1 + 3 + 9
        assert [n.level for n in nodes] == sorted(n.level for n in nodes)

    def test_physical_nodes_in_sid_order(self, paper_tree):
        sids = [node.replica_id for node in paper_tree.physical_nodes()]
        assert sids == list(range(8))

    def test_physical_nodes_at(self, paper_tree):
        assert len(paper_tree.physical_nodes_at(2)) == 5
        assert len(paper_tree.physical_nodes_at(0)) == 0

    def test_replica_ids(self, paper_tree):
        assert paper_tree.replica_ids() == tuple(range(8))


class TestTreeNode:
    def test_repr_physical(self):
        node = TreeNode(level=1, index=2, kind=NodeKind.PHYSICAL, replica_id=4)
        assert "phy" in repr(node) and "sid=4" in repr(node)

    def test_repr_logical(self):
        node = TreeNode(level=0, index=1, kind=NodeKind.LOGICAL)
        assert "log" in repr(node)

    def test_kind_predicates(self):
        physical = TreeNode(level=0, index=1, kind=NodeKind.PHYSICAL)
        assert physical.is_physical and not physical.is_logical


class TestSidOrder:
    """``sid_order`` permutes which SID lands on which level slot."""

    def test_default_is_level_order(self):
        tree = ArbitraryTree.from_level_counts([0, 3, 5], [1, 0, 0])
        assert tree.replica_ids() == tuple(range(8))

    def test_permutation_places_sids_in_level_order(self):
        order = (7, 6, 5, 4, 3, 2, 1, 0)
        tree = ArbitraryTree.from_level_counts(
            [0, 3, 5], [1, 0, 0], sid_order=order
        )
        level1 = [node.replica_id for node in tree.physical_nodes_at(1)]
        level2 = [node.replica_id for node in tree.physical_nodes_at(2)]
        assert level1 == [7, 6, 5]
        assert level2 == [4, 3, 2, 1, 0]
        # the universe is unchanged — only placement moved
        assert sorted(tree.replica_ids()) == list(range(8))

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            ArbitraryTree.from_level_counts(
                [0, 3, 5], [1, 0, 0], sid_order=(0, 1, 2, 3, 4, 5, 6, 6)
            )
        with pytest.raises(ValueError, match="permutation"):
            ArbitraryTree.from_level_counts(
                [0, 3, 5], [1, 0, 0], sid_order=(1, 2, 3)
            )

    def test_spec_round_trip_ignores_placement(self):
        """The compressed spec describes shape only, not SID placement."""
        plain = from_spec("1-3-5")
        shuffled = ArbitraryTree.from_level_counts(
            [0, 3, 5], [1, 0, 0], sid_order=(3, 4, 5, 0, 1, 2, 6, 7)
        )
        assert shuffled.spec() == plain.spec()
