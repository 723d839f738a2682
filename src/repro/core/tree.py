"""The arbitrary tree structure of Section 3.1.

A distributed system of ``n`` replicas is organised into a tree of height
``h``.  Every node is either *physical* (it hosts a replica of the data) or
*logical* (purely structural).  Following the paper's notation:

* ``S(i, k)`` is the i-th node of level k (i is 1-based, left to right);
* ``m_k`` is the number of nodes at level k, ``m_phy_k`` / ``m_log_k`` the
  physical / logical counts;
* a level is *physical* when it holds at least one physical node, *logical*
  when all its nodes are logical;
* ``K_phy`` / ``K_log`` are the sorted lists of physical / logical levels;
* ``d`` and ``e`` are the minimal and maximal physical-level sizes;
* Assumption 3.1 requires ``m_phy_0 < m_phy_1 <= m_phy_2 <= ...`` over the
  physical levels, i.e. physical levels grow (weakly) with depth, and the
  root level (at most one node) is strictly smaller than the next.

Replica identifiers (SIDs) are assigned to physical nodes in level order,
left to right, starting from 0 — the same orientation the paper uses.

The paper compresses a tree into a spec string such as ``"1-3-5"``: a leading
``1`` is a *logical* root and each subsequent number is the count of physical
nodes on one physical level.  :meth:`ArbitraryTree.spec` emits this notation
and :func:`repro.core.builder.from_spec` parses it.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum


class NodeKind(Enum):
    """Whether a tree node hosts a replica (physical) or not (logical)."""

    LOGICAL = "logical"
    PHYSICAL = "physical"


@dataclass(eq=False)
class TreeNode:
    """One node ``S(i, k)`` of the arbitrary tree.

    Attributes
    ----------
    level:
        The level ``k`` of the node (root is level 0).
    index:
        The 1-based position ``i`` of the node within its level, counted
        left to right as in the paper.
    kind:
        Physical (hosts a replica) or logical (structural only).
    replica_id:
        The SID of the replica hosted at this node, or ``None`` for logical
        nodes.  SIDs are unique across the tree.
    parent:
        Parent node, ``None`` for the root.
    children:
        Child nodes in left-to-right order.
    """

    level: int
    index: int
    kind: NodeKind
    replica_id: int | None = None
    parent: "TreeNode | None" = field(default=None, repr=False)
    children: list["TreeNode"] = field(default_factory=list, repr=False)

    @property
    def is_physical(self) -> bool:
        """True iff the node hosts a replica."""
        return self.kind is NodeKind.PHYSICAL

    @property
    def is_logical(self) -> bool:
        """True iff the node is structural only."""
        return self.kind is NodeKind.LOGICAL

    def __repr__(self) -> str:
        tag = "phy" if self.is_physical else "log"
        rid = f", sid={self.replica_id}" if self.replica_id is not None else ""
        return f"S_{tag}({self.index},{self.level}{rid})"


@dataclass(frozen=True)
class LevelSummary:
    """One row of the paper's Table 1: node counts for a single level."""

    level: int
    total: int
    physical: int
    logical: int


class AssumptionViolation(ValueError):
    """Raised when a tree does not satisfy Assumption 3.1."""


class ArbitraryTree:
    """An arbitrary tree of logical and physical nodes (Section 3.1).

    Construct via :meth:`from_level_counts` (or the higher-level helpers in
    :mod:`repro.core.builder`); the constructor itself takes fully wired
    levels and is mostly internal.

    Parameters
    ----------
    levels:
        ``levels[k]`` is the left-to-right sequence of nodes at level ``k``.
        Parent/child links must already be consistent.
    validate_assumption:
        When True (default), reject trees violating Assumption 3.1.
    sid_order:
        Optional permutation of ``range(n)`` assigning SIDs to physical
        nodes in level order (``sid_order[i]`` is the SID of the i-th
        physical node).  The default is the identity — SIDs 0..n-1 in
        level order, the paper's orientation.  Reconfiguration planning
        uses a permutation to *demote* chronically suspected replicas to
        the deepest (widest) level without changing the fleet.
    """

    def __init__(
        self,
        levels: Sequence[Sequence[TreeNode]],
        validate_assumption: bool = True,
        sid_order: Sequence[int] | None = None,
    ) -> None:
        if not levels or not levels[0]:
            raise ValueError("a tree needs at least a root level")
        if len(levels[0]) != 1:
            raise ValueError("level 0 must contain exactly the root node")
        self._levels: tuple[tuple[TreeNode, ...], ...] = tuple(
            tuple(level) for level in levels
        )
        self._check_structure()
        self._assign_replica_ids(sid_order)
        if validate_assumption:
            self.check_assumption()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_level_counts(
        cls,
        physical_counts: Sequence[int],
        logical_counts: Sequence[int] | None = None,
        validate_assumption: bool = True,
        sid_order: Sequence[int] | None = None,
    ) -> "ArbitraryTree":
        """Build a tree from per-level physical (and logical) node counts.

        ``physical_counts[k]`` is ``m_phy_k`` and ``logical_counts[k]`` is
        ``m_log_k`` (defaulting to zero everywhere except that a level with
        no nodes at all is rejected).  Children are attached to the previous
        level's nodes round-robin, which yields a well-formed tree; the
        protocol's behaviour depends only on the level composition, not on
        the particular parent assignment.
        """
        if logical_counts is None:
            logical_counts = [0] * len(physical_counts)
        if len(logical_counts) != len(physical_counts):
            raise ValueError("physical and logical count vectors differ in length")

        levels: list[list[TreeNode]] = []
        for k, (n_phy, n_log) in enumerate(zip(physical_counts, logical_counts)):
            if n_phy < 0 or n_log < 0:
                raise ValueError("node counts must be non-negative")
            if n_phy + n_log == 0:
                raise ValueError(f"level {k} has no nodes")
            nodes: list[TreeNode] = []
            for i in range(1, n_phy + n_log + 1):
                kind = NodeKind.PHYSICAL if i <= n_phy else NodeKind.LOGICAL
                nodes.append(TreeNode(level=k, index=i, kind=kind))
            if k > 0:
                parents = levels[k - 1]
                for position, node in enumerate(nodes):
                    parent = parents[position % len(parents)]
                    node.parent = parent
                    parent.children.append(node)
            levels.append(nodes)
        return cls(
            levels,
            validate_assumption=validate_assumption,
            sid_order=sid_order,
        )

    def _check_structure(self) -> None:
        for k, level in enumerate(self._levels):
            for position, node in enumerate(level, start=1):
                if node.level != k:
                    raise ValueError(
                        f"node at level {k} claims level {node.level}"
                    )
                if node.index != position:
                    raise ValueError(
                        f"node {node!r} out of order at position {position}"
                    )
                if k == 0 and node.parent is not None:
                    raise ValueError("root node must not have a parent")
                if k > 0:
                    if node.parent is None:
                        raise ValueError(f"non-root node {node!r} lacks a parent")
                    if node.parent.level != k - 1:
                        raise ValueError(
                            f"parent of {node!r} is not on the previous level"
                        )

    def _assign_replica_ids(
        self, sid_order: Sequence[int] | None = None
    ) -> None:
        physical = [
            node for level in self._levels for node in level if node.is_physical
        ]
        count = len(physical)
        if sid_order is None:
            order: Sequence[int] = range(count)
        else:
            order = tuple(sid_order)
            if sorted(order) != list(range(count)):
                raise ValueError(
                    f"sid_order must be a permutation of 0..{count - 1}, "
                    f"got {order}"
                )
        for node, sid in zip(physical, order):
            node.replica_id = sid
        for level in self._levels:
            for node in level:
                if node.is_logical:
                    node.replica_id = None
        self._n = count

    # ------------------------------------------------------------------
    # paper notation accessors
    # ------------------------------------------------------------------

    @property
    def height(self) -> int:
        """The height ``h`` of the tree (root-only tree has height 0)."""
        return len(self._levels) - 1

    @property
    def n(self) -> int:
        """Total number of replicas (physical nodes) in the tree."""
        return self._n

    @property
    def levels(self) -> tuple[tuple[TreeNode, ...], ...]:
        """All levels, outermost index is the level number ``k``."""
        return self._levels

    @property
    def root(self) -> TreeNode:
        """The root node ``S(1, 0)``."""
        return self._levels[0][0]

    def node(self, i: int, k: int) -> TreeNode:
        """The paper's ``S(i, k)``: i-th node (1-based) of level k."""
        return self._levels[k][i - 1]

    def m(self, k: int) -> int:
        """``m_k``: total number of nodes at level k."""
        return len(self._levels[k])

    def m_phy(self, k: int) -> int:
        """``m_phy_k``: number of physical nodes at level k."""
        return sum(1 for node in self._levels[k] if node.is_physical)

    def m_log(self, k: int) -> int:
        """``m_log_k``: number of logical nodes at level k."""
        return sum(1 for node in self._levels[k] if node.is_logical)

    @property
    def physical_levels(self) -> tuple[int, ...]:
        """``K_phy``: levels holding at least one physical node, ascending."""
        return tuple(
            k for k in range(len(self._levels)) if self.m_phy(k) > 0
        )

    @property
    def logical_levels(self) -> tuple[int, ...]:
        """``K_log``: levels whose nodes are all logical, ascending."""
        return tuple(
            k for k in range(len(self._levels)) if self.m_phy(k) == 0
        )

    @property
    def num_physical_levels(self) -> int:
        """``|K_phy| = 1 + h - |K_log|``."""
        return len(self.physical_levels)

    @property
    def num_logical_levels(self) -> int:
        """``|K_log|``."""
        return len(self.logical_levels)

    @property
    def physical_level_sizes(self) -> tuple[int, ...]:
        """``m_phy_k`` for each physical level ``k`` in ascending depth."""
        return tuple(self.m_phy(k) for k in self.physical_levels)

    @property
    def d(self) -> int:
        """Minimal physical-level size (drives the read load ``1/d``)."""
        return min(self.physical_level_sizes)

    @property
    def e(self) -> int:
        """Maximal physical-level size (the worst-case write cost)."""
        return max(self.physical_level_sizes)

    # ------------------------------------------------------------------
    # node / replica iteration
    # ------------------------------------------------------------------

    def nodes(self) -> Iterator[TreeNode]:
        """All nodes in level order, left to right."""
        for level in self._levels:
            yield from level

    def physical_nodes(self) -> Iterator[TreeNode]:
        """All physical nodes in SID order."""
        for node in self.nodes():
            if node.is_physical:
                yield node

    def physical_nodes_at(self, k: int) -> tuple[TreeNode, ...]:
        """The physical nodes of level k, left to right."""
        return tuple(node for node in self._levels[k] if node.is_physical)

    def replica_ids(self) -> tuple[int, ...]:
        """All replica SIDs (0..n-1)."""
        return tuple(range(self._n))

    def replica_ids_at(self, k: int) -> tuple[int, ...]:
        """SIDs of the replicas hosted on level k."""
        return tuple(
            node.replica_id
            for node in self._levels[k]
            if node.is_physical and node.replica_id is not None
        )

    def level_of_replica(self, sid: int) -> int:
        """The level hosting replica ``sid``."""
        for k in self.physical_levels:
            if sid in self.replica_ids_at(k):
                return k
        raise KeyError(f"no replica with SID {sid}")

    # ------------------------------------------------------------------
    # validation & presentation
    # ------------------------------------------------------------------

    def check_assumption(self) -> None:
        """Enforce Assumption 3.1.

        Physical-level sizes must be non-decreasing with depth; if the root
        level is physical its (singleton) size must be strictly smaller than
        the next physical level; and no logical level may appear *below* a
        physical one (the paper only ever places logical levels at the top
        of the tree — a logical level sandwiched between physical levels
        would make the ``m_phy`` sequence non-monotone).
        """
        sizes = self.physical_level_sizes
        k_phy = self.physical_levels
        for previous, current in zip(sizes, sizes[1:]):
            if current < previous:
                raise AssumptionViolation(
                    f"physical level sizes {sizes} are not non-decreasing"
                )
        if 0 in k_phy and len(sizes) > 1 and sizes[0] >= sizes[1]:
            raise AssumptionViolation(
                "a physical root level must be strictly smaller than the next"
            )
        if k_phy:
            span = range(k_phy[0], k_phy[-1] + 1)
            interior_logical = [k for k in span if k not in k_phy]
            if interior_logical:
                raise AssumptionViolation(
                    f"logical levels {interior_logical} lie between physical ones"
                )

    def satisfies_assumption(self) -> bool:
        """True iff the tree satisfies Assumption 3.1."""
        try:
            self.check_assumption()
        except AssumptionViolation:
            return False
        return True

    def level_table(self) -> list[LevelSummary]:
        """The paper's Table 1: per-level total/physical/logical counts."""
        return [
            LevelSummary(
                level=k,
                total=self.m(k),
                physical=self.m_phy(k),
                logical=self.m_log(k),
            )
            for k in range(len(self._levels))
        ]

    def spec(self) -> str:
        """The paper's compressed notation, e.g. ``"1-3-5"``.

        A leading ``1`` denotes a logical root; every following number is the
        physical count of one physical level.  Trees with a physical root are
        rendered with a ``P`` prefix (``"P1-2-4"``), and logical nodes beyond
        the root are not representable (the physical counts still are).
        """
        sizes = "-".join(str(size) for size in self.physical_level_sizes)
        if 0 in self.physical_levels:
            return f"P{sizes}"
        return f"1-{sizes}"

    def __repr__(self) -> str:
        return (
            f"ArbitraryTree(spec={self.spec()!r}, n={self.n}, "
            f"h={self.height}, |K_phy|={self.num_physical_levels})"
        )

    def describe(self) -> str:
        """Multi-line human-readable description of the level structure."""
        lines = [f"ArbitraryTree {self.spec()} (n={self.n}, h={self.height})"]
        for row in self.level_table():
            tag = "physical" if row.physical else "logical"
            lines.append(
                f"  level {row.level}: m={row.total} "
                f"(phy={row.physical}, log={row.logical}) [{tag}]"
            )
        return "\n".join(lines)
