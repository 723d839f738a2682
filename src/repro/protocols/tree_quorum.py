"""The tree-quorum protocol of Agrawal & El Abbadi [2] — "BINARY".

Replicas are the nodes of a complete binary tree of height ``h``
(``n = 2^(h+1) - 1``).  A quorum is a root-to-leaf path; when a node is
inaccessible it is replaced by paths starting from *all* of its children.
Formally, for a subtree rooted at ``v``:

* ``v`` live:  ``{v}`` union a quorum-path of one child subtree
  (just ``{v}`` when ``v`` is a leaf);
* ``v`` dead:  the union of quorums of *both* child subtrees
  (impossible when ``v`` is a leaf — the operation fails).

Quorum sizes therefore range from ``h + 1 = log2(n+1)`` (a clean path) up to
``(n+1)/2`` (all leaves).  Naor & Wool [10] proved the optimal load of this
system is ``2/(h+2) = 2/(log2(n+1)+1)``; the paper's new lower-bound result
is that *its own* write operation applied to the same unmodified tree only
loads the system ``1/(h+1) = 1/log2(n+1)``.

The paper's Figure 2 uses the average-cost expression from [2] (Section 4)
with root-inclusion fraction ``f = 2/(2+h)``:

    cost(h) = 2^h (1+h)^h / (h (2+h)^(h-1)) - 2/h        for h >= 1.

SIDs are assigned in breadth-first order: root 0, children of ``v`` are
``2v + 1`` and ``2v + 2``.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from repro.protocols.base import ProtocolModel, check_probability
from repro.quorums.liveness import Liveness, LivenessOracle, as_oracle

__all__ = [
    "LivenessOracle",
    "TreeQuorumProtocol",
    "binary_tree_sizes",
    "complete_binary_height",
]


def complete_binary_height(n: int) -> int:
    """Height ``h`` with ``n = 2^(h+1) - 1``; raises for other ``n``."""
    height = (n + 1).bit_length() - 2
    if n < 1 or 2 ** (height + 1) - 1 != n:
        raise ValueError(f"n={n} is not 2^(h+1)-1 for any height h")
    return height


def binary_tree_sizes(max_height: int) -> list[int]:
    """The admissible system sizes ``n = 2^(h+1)-1`` up to ``max_height``."""
    return [2 ** (h + 1) - 1 for h in range(max_height + 1)]


class TreeQuorumProtocol(ProtocolModel):
    """Agrawal-El Abbadi tree quorums on a complete binary tree.

    Reads and writes use the same quorum set (the original protocol provides
    mutual exclusion), matching how the paper's BINARY configuration treats
    both operations.
    """

    name = "BINARY"

    #: Path-with-substitution prefers root-to-leaf paths over the larger
    #: substitution quorums — not uniform over the enumerated collection.
    uniform_selection = False

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self._height = complete_binary_height(n)

    # ------------------------------------------------------------------
    # tree topology (implicit heap layout)
    # ------------------------------------------------------------------

    def children(self, sid: int) -> tuple[int, ...]:
        """The child SIDs of ``sid`` (empty for leaves)."""
        left, right = 2 * sid + 1, 2 * sid + 2
        if left >= self.n:
            return ()
        return (left, right)

    def is_leaf(self, sid: int) -> bool:
        """True iff ``sid`` is a leaf of the tree."""
        return 2 * sid + 1 >= self.n

    # ------------------------------------------------------------------
    # quorum construction with failure fallback (the [2] algorithm)
    # ------------------------------------------------------------------

    def construct_quorum(
        self,
        live: Liveness,
        rng: random.Random | None = None,
    ) -> frozenset[int] | None:
        """Assemble a quorum from live replicas, or ``None`` if impossible.

        Implements the recursive path-with-substitution rule.  With ``rng``
        the child explored first at each live node is randomised (this is
        how a real deployment spreads load); without it the left child is
        preferred, giving deterministic results for tests.
        """
        oracle = as_oracle(live)

        def solve(v: int) -> frozenset[int] | None:
            kids = self.children(v)
            if oracle(v):
                if not kids:
                    return frozenset({v})
                order = list(kids)
                if rng is not None:
                    rng.shuffle(order)
                for child in order:
                    sub = solve(child)
                    if sub is not None:
                        return frozenset({v}) | sub
                return None
            if not kids:
                return None
            parts = []
            for child in kids:
                sub = solve(child)
                if sub is None:
                    return None
                parts.append(sub)
            return frozenset().union(*parts)

        return solve(0)

    def select_read_quorum(
        self, live: Liveness, rng: random.Random | None = None
    ) -> frozenset[int] | None:
        """Reads use the path-with-substitution construction."""
        return self.construct_quorum(live, rng)

    def select_write_quorum(
        self, live: Liveness, rng: random.Random | None = None
    ) -> frozenset[int] | None:
        """Writes share the read quorums (the original mutual-exclusion set)."""
        return self.construct_quorum(live, rng)

    # ------------------------------------------------------------------
    # explicit enumeration (exponential; small heights only)
    # ------------------------------------------------------------------

    def enumerate_quorums(self, max_quorums: int = 200_000) -> Iterator[frozenset[int]]:
        """Enumerate every quorum the construction rule can produce.

        The count satisfies ``c(0) = 1``, ``c(h) = 2 c(h-1) + c(h-1)^2``
        (3, 15, 255, 65535, ... for h = 1..4); a guard raises once the
        requested limit would be exceeded.
        """
        if self.quorum_count() > max_quorums:
            raise ValueError(
                f"{self.quorum_count()} quorums exceed the limit {max_quorums}"
            )

        def solve(v: int) -> list[frozenset[int]]:
            kids = self.children(v)
            if not kids:
                return [frozenset({v})]
            left, right = (solve(child) for child in kids)
            with_v = [frozenset({v}) | q for q in left + right]
            without_v = [ql | qr for ql in left for qr in right]
            return with_v + without_v

        yield from solve(0)

    def quorum_count(self) -> int:
        """Number of quorums: ``c(h) = 2 c(h-1) + c(h-1)^2``, ``c(0) = 1``."""
        count = 1
        for _ in range(self._height):
            count = 2 * count + count * count
        return count

    def read_quorums(self) -> Iterator[frozenset[int]]:
        """Reads and writes share the same quorums in this protocol."""
        return self.enumerate_quorums()

    def write_quorums(self) -> Iterator[frozenset[int]]:
        """Reads and writes share the same quorums in this protocol."""
        return self.enumerate_quorums()

    # ------------------------------------------------------------------
    # analytic quantities
    # ------------------------------------------------------------------

    def average_cost(self) -> float:
        """The paper's Figure-2 BINARY cost (average quorum size).

        ``2^h (1+h)^h / (h (2+h)^(h-1)) - 2/h`` with ``f = 2/(2+h)``; a
        single-node tree (h = 0) trivially costs 1.
        """
        h = self._height
        if h == 0:
            return 1.0
        return (2.0**h * (1.0 + h) ** h) / (h * (2.0 + h) ** (h - 1)) - 2.0 / h

    def min_cost(self) -> int:
        """Cheapest quorum: a failure-free root-to-leaf path, ``h + 1``."""
        return self._height + 1

    def max_cost(self) -> int:
        """Costliest quorum: all the leaves, ``(n+1)/2``."""
        return (self.n + 1) // 2

    def read_cost(self) -> float:
        """Average quorum size (reads and writes are symmetric)."""
        return self.average_cost()

    def write_cost(self) -> float:
        """Average quorum size (reads and writes are symmetric)."""
        return self.average_cost()

    def availability(self, p: float, op: str = "read") -> float:
        """Probability a quorum is constructible (``op`` ignored: one set).

        ``A(0) = p`` and ``A(h) = p (1 - (1 - a)^2) + (1 - p) a^2`` with
        ``a = A(h-1)``: a live root needs a path from either child, a dead
        root needs quorums from both children.
        """
        check_probability(p)
        availability = p
        for _ in range(self._height):
            a = availability
            availability = p * (1.0 - (1.0 - a) ** 2) + (1.0 - p) * a * a
        return availability

    def read_availability(self, p: float) -> float:
        """Same recursion for reads and writes."""
        return self.availability(p)

    def write_availability(self, p: float) -> float:
        """Same recursion for reads and writes."""
        return self.availability(p)

    def optimal_load(self) -> float:
        """Naor-Wool optimal load of the tree-quorum system.

        ``2/(h+2) = 2/(log2(n+1) + 1)`` — [10], Section 6.3.
        """
        return 2.0 / (self._height + 2.0)

    def read_load(self) -> float:
        """Reads and writes share the optimal load ``2/(h+2)``."""
        return self.optimal_load()

    def write_load(self) -> float:
        """Reads and writes share the optimal load ``2/(h+2)``."""
        return self.optimal_load()

    def path_strategy_load(self) -> float:
        """Load when only clean root-to-leaf paths are used: 1 (via the root).

        The paper's introduction points out that achieving the ``log n``
        quorum size forces every quorum through the root, so any strategy
        restricted to paths loads the root with probability 1.
        """
        return 1.0
