"""Maekawa's sqrt(n) protocol via finite projective planes — [9].

For ``n = q^2 + q + 1`` with ``q`` a prime, the points of the projective
plane ``PG(2, q)`` are the replicas and its lines are the quorums: every
line holds exactly ``q + 1`` points, every point lies on exactly ``q + 1``
lines, and any two lines meet in exactly one point.  The resulting coterie
has quorums of size about ``sqrt(n)`` and — because the uniform strategy
touches each replica with probability ``(q+1)/n`` — achieves the optimal
load ``O(1/sqrt(n))`` the paper's introduction uses as the gold standard.

Construction: points are the ``q^2 + q + 1`` equivalence classes of nonzero
triples over ``GF(q)`` (normalised so the first nonzero coordinate is 1);
lines are the same classes; point ``P`` lies on line ``L`` iff their dot
product vanishes mod ``q``.  Only prime ``q`` is supported (prime-power
fields would need polynomial arithmetic, which the analyses here never
exercise).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

from repro.protocols.base import ProtocolModel, check_probability
from repro.quorums.availability import system_availability


def is_prime(value: int) -> bool:
    """Trial-division primality (fine for plane orders)."""
    if value < 2:
        return False
    if value % 2 == 0:
        return value == 2
    divisor = 3
    while divisor * divisor <= value:
        if value % divisor == 0:
            return False
        divisor += 2
    return True


def plane_order(n: int) -> int:
    """The prime ``q`` with ``n = q^2 + q + 1``; raises for other ``n``."""
    q = 1
    while q * q + q + 1 < n:
        q += 1
    if q * q + q + 1 != n:
        raise ValueError(f"n={n} is not q^2+q+1 for any q")
    if not is_prime(q):
        raise ValueError(
            f"n={n} needs a projective plane of order {q}, "
            "which is not prime (prime powers are unsupported)"
        )
    return q


def fpp_sizes(max_order: int) -> list[int]:
    """Admissible sizes ``q^2 + q + 1`` for prime ``q`` up to ``max_order``."""
    return [q * q + q + 1 for q in range(2, max_order + 1) if is_prime(q)]


def _projective_points(q: int) -> list[tuple[int, int, int]]:
    """Canonical representatives of the points of PG(2, q).

    Normalised forms: (1, y, z), (0, 1, z), (0, 0, 1) — exactly
    ``q^2 + q + 1`` triples.
    """
    points = [(1, y, z) for y, z in product(range(q), repeat=2)]
    points += [(0, 1, z) for z in range(q)]
    points.append((0, 0, 1))
    return points


class FiniteProjectivePlaneProtocol(ProtocolModel):
    """Maekawa-style quorums from the lines of PG(2, q)."""

    name = "FPP"

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self._q = plane_order(n)
        points = _projective_points(self._q)
        index = {point: sid for sid, point in enumerate(points)}
        self._quorums: list[frozenset[int]] = []
        for line in points:
            members = frozenset(
                index[point]
                for point in points
                if sum(a * b for a, b in zip(line, point)) % self._q == 0
            )
            self._quorums.append(members)

    @property
    def order(self) -> int:
        """The plane order ``q``."""
        return self._q

    def quorum_size(self) -> int:
        """Every line has exactly ``q + 1`` points."""
        return self._q + 1

    def read_quorums(self) -> Iterator[frozenset[int]]:
        """The lines of the plane (reads and writes share them)."""
        return iter(self._quorums)

    def write_quorums(self) -> Iterator[frozenset[int]]:
        """The lines of the plane (reads and writes share them)."""
        return iter(self._quorums)

    def read_cost(self) -> float:
        """``q + 1 ~ sqrt(n)``."""
        return float(self.quorum_size())

    def write_cost(self) -> float:
        """``q + 1 ~ sqrt(n)``."""
        return float(self.quorum_size())

    def read_availability(self, p: float) -> float:
        """Exact / Monte-Carlo availability over the explicit line set."""
        check_probability(p)
        return system_availability(self._quorums, p, universe=range(self.n))

    def write_availability(self, p: float) -> float:
        """Identical to reads (one quorum set)."""
        return self.read_availability(p)

    def read_load(self) -> float:
        """Uniform over lines: each point on ``q+1`` of ``n`` lines."""
        return (self._q + 1.0) / self.n

    def write_load(self) -> float:
        """Identical to reads."""
        return self.read_load()
