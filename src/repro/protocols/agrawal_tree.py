"""The original tree protocol for replicated data — Agrawal & El Abbadi [1].

(VLDB 1990; not to be confused with the 1991 tree *quorum* mutual-exclusion
protocol in :mod:`repro.protocols.tree_quorum`.)  Replicas are the nodes of
a complete tree in which every node has ``2d + 1`` children:

* a **read quorum** is the root alone — or, recursively, read quorums of a
  majority (``d + 1``) of a missing node's children.  Reads cost 1 in the
  best case and ``(d+1)^h`` in the worst (a majority cascade to the leaves);
* a **write quorum** is the root plus, recursively, write quorums of
  ``d + 1`` of every chosen node's children — i.e. a full majority spine,
  costing ``((d+1)^(h+1) - 1) / d`` always.

The paper's introduction quotes exactly these costs and points out the two
structural weaknesses the arbitrary protocol fixes: the cost-1 read strategy
routes *everything* through the root (load 1), and the root is a member of
every write quorum, so a root crash blocks all writes.

SIDs are assigned in breadth-first order: the children of node ``v`` are
``v * (2d+1) + 1 .. v * (2d+1) + 2d+1``.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import combinations

from repro.protocols.base import ProtocolModel, check_probability
from repro.quorums.liveness import Liveness, LivenessOracle, as_oracle

__all__ = ["AgrawalTreeProtocol", "LivenessOracle", "complete_tree_size"]


def complete_tree_size(branching: int, height: int) -> int:
    """Number of nodes of the complete tree: ``(b^(h+1) - 1) / (b - 1)``."""
    return (branching ** (height + 1) - 1) // (branching - 1)


class AgrawalTreeProtocol(ProtocolModel):
    """The [1] tree protocol on a complete ``(2d+1)``-ary tree of height h.

    Parameters
    ----------
    d:
        Majority parameter: every node has ``2d + 1`` children and a
        majority is ``d + 1`` of them (``d >= 0``; the degenerate ``d = 0``
        gives a unary chain where read = any node is *not* intended — use
        ``d >= 1``).
    height:
        Tree height ``h >= 0``.
    """

    name = "AE-Tree"

    #: Recursive majority-spine preference is not uniform over the
    #: enumerated quorums — keep the structural path in the simulator.
    uniform_selection = False

    def __init__(self, d: int = 1, height: int = 2) -> None:
        if d < 1:
            raise ValueError("the majority parameter d must be at least 1")
        if height < 0:
            raise ValueError("height must be non-negative")
        self._d = d
        self._height = height
        self._branching = 2 * d + 1
        super().__init__(complete_tree_size(self._branching, height))

    def children(self, sid: int) -> tuple[int, ...]:
        """Child SIDs of a node (empty for leaves)."""
        first = sid * self._branching + 1
        if first >= self.n:
            return ()
        return tuple(range(first, first + self._branching))

    def _majority(self) -> int:
        return self._d + 1

    # ------------------------------------------------------------------
    # quorum construction
    # ------------------------------------------------------------------

    def construct_read_quorum(
        self,
        live: Liveness,
        rng: random.Random | None = None,
    ) -> frozenset[int] | None:
        """Root if live; else majorities of children, recursively."""
        oracle = as_oracle(live)

        def solve(v: int) -> frozenset[int] | None:
            if oracle(v):
                return frozenset({v})
            kids = list(self.children(v))
            if not kids:
                return None
            if rng is not None:
                rng.shuffle(kids)
            parts: list[frozenset[int]] = []
            for child in kids:
                sub = solve(child)
                if sub is not None:
                    parts.append(sub)
                if len(parts) == self._majority():
                    return frozenset().union(*parts)
            return None

        return solve(0)

    def construct_write_quorum(
        self,
        live: Liveness,
        rng: random.Random | None = None,
    ) -> frozenset[int] | None:
        """The live root plus write quorums of a child majority, recursively."""
        oracle = as_oracle(live)

        def solve(v: int) -> frozenset[int] | None:
            if not oracle(v):
                return None
            kids = list(self.children(v))
            if not kids:
                return frozenset({v})
            if rng is not None:
                rng.shuffle(kids)
            parts: list[frozenset[int]] = []
            for child in kids:
                sub = solve(child)
                if sub is not None:
                    parts.append(sub)
                if len(parts) == self._majority():
                    return frozenset({v}).union(*parts)
            return None

        return solve(0)

    def select_read_quorum(
        self, live: Liveness, rng: random.Random | None = None
    ) -> frozenset[int] | None:
        """Reads use the root-or-child-majorities construction."""
        return self.construct_read_quorum(live, rng)

    def select_write_quorum(
        self, live: Liveness, rng: random.Random | None = None
    ) -> frozenset[int] | None:
        """Writes use the root-plus-majority-spine construction."""
        return self.construct_write_quorum(live, rng)

    # ------------------------------------------------------------------
    # enumeration (small trees)
    # ------------------------------------------------------------------

    def read_quorums(self) -> Iterator[frozenset[int]]:
        """All minimal read quorums (exponential; small trees only)."""

        def solve(v: int) -> list[frozenset[int]]:
            quorums = [frozenset({v})]
            kids = self.children(v)
            if not kids:
                return quorums
            child_options = [solve(child) for child in kids]
            for subset in combinations(range(len(kids)), self._majority()):
                def expand(index: int, acc: frozenset[int]):
                    if index == len(subset):
                        quorums.append(acc)
                        return
                    for option in child_options[subset[index]]:
                        expand(index + 1, acc | option)
                expand(0, frozenset())
            return quorums

        yield from solve(0)

    def write_quorums(self) -> Iterator[frozenset[int]]:
        """All minimal write quorums (exponential; small trees only)."""

        def solve(v: int) -> list[frozenset[int]]:
            kids = self.children(v)
            if not kids:
                return [frozenset({v})]
            child_options = [solve(child) for child in kids]
            quorums: list[frozenset[int]] = []
            for subset in combinations(range(len(kids)), self._majority()):
                def expand(index: int, acc: frozenset[int]):
                    if index == len(subset):
                        quorums.append(frozenset({v}) | acc)
                        return
                    for option in child_options[subset[index]]:
                        expand(index + 1, acc | option)
                expand(0, frozenset())
            return quorums

        yield from solve(0)

    # ------------------------------------------------------------------
    # analytic quantities (the paper's intro formulas)
    # ------------------------------------------------------------------

    def read_cost_min(self) -> int:
        """Best case: the root alone."""
        return 1

    def read_cost_max(self) -> int:
        """Worst case: a majority cascade to the leaves, ``(d+1)^h``."""
        return (self._d + 1) ** self._height

    def write_cost_exact(self) -> int:
        """Always ``((d+1)^(h+1) - 1) / d`` (the full majority spine)."""
        return ((self._d + 1) ** (self._height + 1) - 1) // self._d

    def read_cost(self) -> float:
        """Failure-free reads touch only the root."""
        return 1.0

    def write_cost(self) -> float:
        """The exact write quorum size."""
        return float(self.write_cost_exact())

    def read_availability(self, p: float) -> float:
        """``R(0) = p``; ``R(h) = p + (1-p) P[>= d+1 subtrees readable]``."""
        check_probability(p)
        value = p
        for _ in range(self._height):
            value = p + (1.0 - p) * _at_least(
                self._branching, self._majority(), value
            )
        return value

    def write_availability(self, p: float) -> float:
        """``W(0) = p``; ``W(h) = p * P[>= d+1 subtrees writable]``.

        Strictly below ``p`` for every h >= 1 — the root-crash weakness the
        paper's introduction highlights.
        """
        check_probability(p)
        value = p
        for _ in range(self._height):
            value = p * _at_least(self._branching, self._majority(), value)
        return value

    def read_load(self) -> float:
        """The cost-1 strategy reads the root every time: load 1."""
        return 1.0

    def write_load(self) -> float:
        """The root is in every write quorum: load 1."""
        return 1.0


def _at_least(n: int, k: int, p: float) -> float:
    """P[Binomial(n, p) >= k]."""
    import math

    return math.fsum(
        math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k, n + 1)
    )
