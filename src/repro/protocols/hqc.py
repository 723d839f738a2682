"""Hierarchical Quorum Consensus (HQC) — Kumar [8].

The replicas are the *leaves* of a complete ternary tree of depth ``l``
(``n = 3^l``); interior nodes are purely logical.  A quorum is assembled
top-down by picking a (sub)quorum in 2 of the 3 subtrees at every interior
node, so quorums have exactly ``2^l = n^{log_3 2} ~ n^0.63`` leaves.  Two
quorums always intersect (majorities of majorities), so one quorum set
serves both reads and writes.

Naor & Wool [10] computed the optimal load of this system: ``(2/3)^l =
n^{log_3 2 - 1} ~ n^{-0.37}`` — better than tree quorums but short of the
``1/sqrt(n)`` optimum.  Availability satisfies the 2-of-3 majority
recursion ``A(0) = p``, ``A(l) = 3 a^2 (1 - a) + a^3`` with ``a = A(l-1)``.

The paper generalises HQC: its logical/physical node distinction is lifted
from the HQC hierarchy, but quorums are re-organised per *level* rather than
per *subtree*.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from itertools import combinations

from repro.protocols.base import ProtocolModel, check_probability
from repro.quorums.liveness import Liveness, LivenessOracle, as_oracle

#: Exponent of the HQC quorum size: log_3(2).
HQC_COST_EXPONENT = math.log(2) / math.log(3)

#: Exponent of the HQC optimal load: log_3(2) - 1 (about -0.37).
HQC_LOAD_EXPONENT = HQC_COST_EXPONENT - 1.0

__all__ = [
    "HQCProtocol",
    "HQC_COST_EXPONENT",
    "HQC_LOAD_EXPONENT",
    "LivenessOracle",
    "hqc_sizes",
    "ternary_depth",
]


def ternary_depth(n: int) -> int:
    """Depth ``l`` with ``n = 3^l``; raises for other ``n``."""
    if n < 1:
        raise ValueError("need at least one replica")
    depth = round(math.log(n, 3))
    if 3**depth != n:
        raise ValueError(f"n={n} is not a power of 3")
    return depth


def hqc_sizes(max_depth: int) -> list[int]:
    """Admissible system sizes ``3^l`` for ``l`` up to ``max_depth``."""
    return [3**depth for depth in range(max_depth + 1)]


class HQCProtocol(ProtocolModel):
    """Kumar's hierarchical quorum consensus on a complete ternary tree.

    SIDs ``0..n-1`` are the leaves in left-to-right order; the subtree of
    size ``3^d`` starting at offset ``o`` covers SIDs ``[o, o + 3^d)``.
    """

    name = "HQC"

    #: Recursive 2-of-3 subtree preference is not uniform over the
    #: enumerated quorums — keep the structural path in the simulator.
    uniform_selection = False

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self._depth = ternary_depth(n)

    # ------------------------------------------------------------------
    # quorum construction
    # ------------------------------------------------------------------

    def construct_quorum(
        self,
        live: Liveness,
        rng: random.Random | None = None,
    ) -> frozenset[int] | None:
        """Assemble a quorum from live replicas, or ``None``.

        At every interior node any 2 of the 3 subtrees must recursively
        yield sub-quorums.  With ``rng`` subtree preference is randomised;
        otherwise the leftmost viable pair is used.
        """
        oracle = as_oracle(live)

        def solve(offset: int, depth: int) -> frozenset[int] | None:
            if depth == 0:
                return frozenset({offset}) if oracle(offset) else None
            third = 3 ** (depth - 1)
            subtrees = [offset, offset + third, offset + 2 * third]
            if rng is not None:
                rng.shuffle(subtrees)
            solved: list[frozenset[int]] = []
            for start in subtrees:
                sub = solve(start, depth - 1)
                if sub is not None:
                    solved.append(sub)
                if len(solved) == 2:
                    return solved[0] | solved[1]
            return None

        return solve(0, self._depth)

    def select_read_quorum(
        self, live: Liveness, rng: random.Random | None = None
    ) -> frozenset[int] | None:
        """Reads use the hierarchical construction."""
        return self.construct_quorum(live, rng)

    def select_write_quorum(
        self, live: Liveness, rng: random.Random | None = None
    ) -> frozenset[int] | None:
        """Writes share the read quorums (majorities of majorities)."""
        return self.construct_quorum(live, rng)

    def enumerate_quorums(self, max_quorums: int = 200_000) -> Iterator[frozenset[int]]:
        """Enumerate every HQC quorum (count ``c(l) = 3 c(l-1)^2``).

        3, 27, 2187, ... for ``l`` = 1, 2, 3; guarded against explosion.
        """
        if self.quorum_count() > max_quorums:
            raise ValueError(
                f"{self.quorum_count()} quorums exceed the limit {max_quorums}"
            )

        def solve(offset: int, depth: int) -> list[frozenset[int]]:
            if depth == 0:
                return [frozenset({offset})]
            third = 3 ** (depth - 1)
            subtrees = [
                solve(offset + i * third, depth - 1) for i in range(3)
            ]
            quorums: list[frozenset[int]] = []
            for a, b in combinations(range(3), 2):
                for qa in subtrees[a]:
                    for qb in subtrees[b]:
                        quorums.append(qa | qb)
            return quorums

        yield from solve(0, self._depth)

    def quorum_count(self) -> int:
        """``c(0) = 1``, ``c(l) = 3 c(l-1)^2``."""
        count = 1
        for _ in range(self._depth):
            count = 3 * count * count
        return count

    def read_quorums(self) -> Iterator[frozenset[int]]:
        """Reads and writes share the same hierarchical quorums."""
        return self.enumerate_quorums()

    def write_quorums(self) -> Iterator[frozenset[int]]:
        """Reads and writes share the same hierarchical quorums."""
        return self.enumerate_quorums()

    # ------------------------------------------------------------------
    # analytic quantities
    # ------------------------------------------------------------------

    def quorum_size(self) -> int:
        """Every quorum has exactly ``2^l = n^0.63`` members."""
        return 2**self._depth

    def read_cost(self) -> float:
        """``n^0.63`` (the paper's quoted HQC cost)."""
        return float(self.quorum_size())

    def write_cost(self) -> float:
        """``n^0.63`` — identical to reads."""
        return float(self.quorum_size())

    def availability(self, p: float, op: str = "read") -> float:
        """2-of-3 majority recursion: ``A(l) = 3a^2(1-a) + a^3``.

        ``op`` is accepted for unified-layer compatibility and ignored —
        reads and writes share the one quorum set.
        """
        check_probability(p)
        availability = p
        for _ in range(self._depth):
            a = availability
            availability = 3.0 * a * a * (1.0 - a) + a**3
        return availability

    def read_availability(self, p: float) -> float:
        """Same recursion for reads and writes."""
        return self.availability(p)

    def write_availability(self, p: float) -> float:
        """Same recursion for reads and writes."""
        return self.availability(p)

    def optimal_load(self) -> float:
        """``(2/3)^l = n^(log_3 2 - 1) ~ n^-0.37`` ([10], Section 6.4)."""
        return (2.0 / 3.0) ** self._depth

    def read_load(self) -> float:
        """Reads and writes share the optimal load ``n^-0.37``."""
        return self.optimal_load()

    def write_load(self) -> float:
        """Reads and writes share the optimal load ``n^-0.37``."""
        return self.optimal_load()
