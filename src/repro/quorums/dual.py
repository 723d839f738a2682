"""Dual quorums: the transition-epoch system of online reconfiguration.

Quorums of two *different* trees need not intersect, so a system cannot
swap from one tree to another while traffic flows unless something makes
the boundary safe.  :class:`DualQuorumSystem` is that something: a
composite over an ``(old, new)`` pair sharing one universe whose read
quorum is *(an old read quorum) ∪ (a new read quorum)* and whose write
quorum is *(an old write quorum) ∪ (a new write quorum)*.

Every dual quorum is therefore a **superset of a quorum of either
component**, which yields the transition safety argument directly:

* a dual **read** contains an old read quorum, so it intersects every
  write committed in the old epoch; it also contains a new read quorum,
  so it intersects every write the new epoch will commit — reads during
  the transition can never miss a version, whichever side it landed on;
* a dual **write** contains both components' write quorums, so both an
  old-epoch and a new-epoch read quorum will see it — values written
  during the transition survive **commit and rollback alike**, which is
  what makes a failed transition abortable without state repair.

The bi-coterie property is inherited, not re-proved: dual-vs-dual
intersection follows from either component's own intersection.

Selection is structural (``uniform_selection = False``): the components
select independently and the picks are unioned, so the composite works
with lazy/structural component selectors and never enumerates.  The
collection enumeration below exists for the analysis/verification paths
(``is_bicoterie``, availability on small systems), not for selection.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from repro.quorums.liveness import Liveness
from repro.quorums.system import QuorumSystem


class DualQuorumSystem(QuorumSystem):
    """The union-quorum composite of an old and a new quorum system.

    Both systems must span the same universe — reconfiguration changes
    the *shape*, not the fleet.
    """

    uniform_selection = False

    def __init__(self, old: QuorumSystem, new: QuorumSystem) -> None:
        if frozenset(old.universe) != frozenset(new.universe):
            raise ValueError(
                "dual quorum systems need one universe: "
                f"{sorted(old.universe)} vs {sorted(new.universe)}"
            )
        self._old = old
        self._new = new
        self.name = f"dual({old.name} -> {new.name})"

    @property
    def universe(self) -> frozenset[int]:
        return self._old.universe

    # ------------------------------------------------------------------
    # enumeration (analysis paths only; selection never touches these)
    # ------------------------------------------------------------------

    def read_quorums(self) -> Iterator[frozenset[int]]:
        """Pairwise unions of both components' read quorums."""
        others: tuple[frozenset[int], ...] | None = None
        for mine in self._old.read_quorums():
            if others is None:
                others = tuple(self._new.read_quorums())
            for theirs in others:
                yield mine | theirs

    def write_quorums(self) -> Iterator[frozenset[int]]:
        """Pairwise unions of both components' write quorums."""
        others: tuple[frozenset[int], ...] | None = None
        for mine in self._old.write_quorums():
            if others is None:
                others = tuple(self._new.write_quorums())
            for theirs in others:
                yield mine | theirs

    # ------------------------------------------------------------------
    # selection: independent component picks, unioned
    # ------------------------------------------------------------------

    def select_read_quorum(
        self, live: Liveness, rng: random.Random | None = None
    ) -> frozenset[int] | None:
        """A live read quorum of *both* trees (None if either side fails).

        Availability during the transition is the product of both sides'
        read availability — the price of straddling two shapes, paid only
        for the duration of the migration.
        """
        mine = self._old.select_read_quorum(live, rng)
        if mine is None:
            return None
        theirs = self._new.select_read_quorum(live, rng)
        if theirs is None:
            return None
        return mine | theirs

    def select_write_quorum(
        self, live: Liveness, rng: random.Random | None = None
    ) -> frozenset[int] | None:
        """A live write quorum of *both* trees (None if either side fails)."""
        mine = self._old.select_write_quorum(live, rng)
        if mine is None:
            return None
        theirs = self._new.select_write_quorum(live, rng)
        if theirs is None:
            return None
        return mine | theirs
