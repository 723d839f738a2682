"""Strategies over quorum systems and the load they induce.

Definitions 2.4 and 2.5 of the paper: a *strategy* is a probability
distribution over the quorums of a system; the *load it induces on an
element* is the total probability of the quorums containing that element;
the *load on the system* is the maximum element load; and the *system load*
is the minimum, over all strategies, of the induced load (computed by the
linear program in :mod:`repro.quorums.load`).
"""

from __future__ import annotations

import math
from collections.abc import Collection, Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import TypeVar

from repro.quorums.base import SetSystem

Element = TypeVar("Element", bound=Hashable)

_PROBABILITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Strategy:
    """A probability distribution over the quorums of a set system.

    Parameters
    ----------
    system:
        The set system the strategy picks quorums from.
    weights:
        One probability per quorum, aligned with ``system.quorums``.
        Must be non-negative and sum to one (Definition 2.4).
    """

    system: SetSystem
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.system):
            raise ValueError(
                f"strategy has {len(self.weights)} weights for "
                f"{len(self.system)} quorums"
            )
        if any(w < -_PROBABILITY_TOLERANCE for w in self.weights):
            raise ValueError("strategy weights must be non-negative")
        total = math.fsum(self.weights)
        if not math.isclose(total, 1.0, abs_tol=1e-6):
            raise ValueError(f"strategy weights sum to {total}, expected 1")

    @classmethod
    def uniform(cls, system: SetSystem) -> "Strategy":
        """The uniform strategy: every quorum picked with probability 1/m.

        This is the strategy the paper uses for both read and write quorums
        of the arbitrary protocol (Sections 3.2.1 and 3.2.2).
        """
        m = len(system)
        return cls(system, tuple(1.0 / m for _ in range(m)))

    @classmethod
    def from_mapping(
        cls,
        system: SetSystem,
        mapping: Mapping[frozenset, float],
    ) -> "Strategy":
        """Build a strategy from a quorum -> probability mapping.

        Quorums absent from the mapping get probability zero.
        """
        weights = tuple(float(mapping.get(q, 0.0)) for q in system.quorums)
        return cls(system, weights)

    def element_load(self, element: Element) -> float:
        """Load induced on one element: sum of weights of quorums holding it."""
        return math.fsum(
            w for w, q in zip(self.weights, self.system.quorums) if element in q
        )

    def element_loads(self) -> dict[Element, float]:
        """Load induced on every universe element (Definition 2.5)."""
        loads: dict[Element, float] = dict.fromkeys(self.system.universe, 0.0)
        for weight, quorum in zip(self.weights, self.system.quorums):
            if weight == 0.0:
                continue
            for element in quorum:
                loads[element] += weight
        return loads

    def induced_load(self) -> float:
        """The load this strategy induces on the system: max element load."""
        return max(self.element_loads().values())

    def expected_quorum_size(self) -> float:
        """Average number of replicas contacted per operation.

        For the arbitrary protocol's uniform write strategy this is the
        paper's *average* write cost ``n / (1 + h - |K_log|)``.
        """
        return math.fsum(
            w * len(q) for w, q in zip(self.weights, self.system.quorums)
        )


def system_load(
    quorums: Iterable[Collection[Element]],
    weights: Sequence[float] | None = None,
    universe: Collection[Element] | None = None,
) -> float:
    """Load induced by a strategy on an explicitly listed system.

    With ``weights=None`` the uniform strategy is used.  This computes
    ``L_w(S)`` of Definition 2.5, *not* the optimal system load ``L(S)``
    (for the latter see :func:`repro.quorums.load.optimal_load`).
    """
    system = SetSystem(quorums, universe=universe)
    if weights is None:
        strategy = Strategy.uniform(system)
    else:
        strategy = Strategy(system, tuple(float(w) for w in weights))
    return strategy.induced_load()
