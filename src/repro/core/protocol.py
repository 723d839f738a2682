"""Read and write quorum construction for the arbitrary protocol (Section 3.2).

Given an :class:`~repro.core.tree.ArbitraryTree`:

* a **read quorum** contains *any one* physical node from *every* physical
  level; there are ``m(R) = prod_k m_phy_k`` of them (Fact 3.2.1);
* a **write quorum** contains *all* physical nodes of *any one* physical
  level; there are ``m(W) = 1 + h - |K_log| = |K_phy|`` of them (Fact 3.2.2).

Every read quorum intersects every write quorum (the induction of
Section 3.2.3), so the protocol is a bi-coterie.  The uniform strategies of
Sections 3.2.1-3.2.2 pick quorums with equal probability; the failure-aware
selectors used by the simulator pick among quorums whose members are live.
As a :class:`~repro.protocols.base.ProtocolModel` it answers the six
closed forms of :mod:`repro.core.metrics`, which is how the Section 4
configurations built on a tree are compared with the baselines.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from itertools import product

from repro.core import metrics
from repro.core.tree import ArbitraryTree
from repro.protocols.base import ProtocolModel
from repro.quorums.base import BiCoterie
from repro.quorums.liveness import Liveness, LivenessOracle, as_oracle

__all__ = ["ArbitraryProtocol", "LivenessOracle"]


class ArbitraryProtocol(ProtocolModel):
    """The arbitrary tree-structured replica control protocol.

    Parameters
    ----------
    tree:
        The logical/physical tree the replicas are organised into.
    name:
        Printed name; :func:`repro.core.config.make_model` passes the
        Section 4 configuration's.

    Notes
    -----
    The number of read quorums is the product of physical-level sizes and
    grows combinatorially; :meth:`read_quorums` is therefore a lazy iterator
    and :meth:`bicoterie` guards materialisation behind a limit.
    """

    #: One independent uniform live choice per physical level (reads) and
    #: a uniform choice among fully-live levels (writes) are exactly the
    #: uniform distribution over the viable quorums, so the simulator may
    #: dispatch selection onto the memoised bitset index.
    uniform_selection = True

    def __init__(self, tree: ArbitraryTree, name: str = "Arbitrary") -> None:
        if tree.n < 1:
            raise ValueError("the tree must host at least one replica")
        super().__init__(tree.n)
        self.name = name
        self._tree = tree
        self._level_sids: tuple[tuple[int, ...], ...] = tuple(
            tree.replica_ids_at(k) for k in tree.physical_levels
        )

    @property
    def tree(self) -> ArbitraryTree:
        """The underlying tree structure."""
        return self._tree

    @property
    def universe(self) -> frozenset[int]:
        """All replica SIDs."""
        return frozenset(self._tree.replica_ids())

    # ------------------------------------------------------------------
    # quorum enumeration (Facts 3.2.1 / 3.2.2)
    # ------------------------------------------------------------------

    @property
    def num_read_quorums(self) -> int:
        """``m(R) = prod_{k in K_phy} m_phy_k`` (Fact 3.2.1)."""
        return math.prod(len(level) for level in self._level_sids)

    @property
    def num_write_quorums(self) -> int:
        """``m(W) = 1 + h - |K_log|`` (Fact 3.2.2)."""
        return len(self._level_sids)

    def read_quorums(self) -> Iterator[frozenset[int]]:
        """Lazily enumerate every read quorum.

        A read quorum is one SID per physical level; enumeration is the
        cartesian product of the physical levels, in level-major order.
        """
        levels = self._level_sids

        def generate(prefix: tuple[int, ...], depth: int) -> Iterator[frozenset[int]]:
            if depth == len(levels):
                yield frozenset(prefix)
                return
            for sid in levels[depth]:
                yield from generate(prefix + (sid,), depth + 1)

        yield from generate((), 0)

    def write_quorums(self) -> tuple[frozenset[int], ...]:
        """Every write quorum: the full SID set of each physical level."""
        return tuple(frozenset(level) for level in self._level_sids)

    def quorum_masks(self, op: str = "read") -> list[int]:
        """Mask twin of the enumerations, same level-major product order."""
        if op not in ("read", "write"):
            raise ValueError(f"op must be 'read' or 'write', got {op!r}")
        if op == "write":
            return [
                sum(1 << sid for sid in level) for level in self._level_sids
            ]
        level_bits = [
            [1 << sid for sid in level] for level in self._level_sids
        ]
        return [sum(pick) for pick in product(*level_bits)]

    # ------------------------------------------------------------------
    # uniform strategies (Sections 3.2.1 / 3.2.2)
    # ------------------------------------------------------------------

    def uniform_read_weight(self) -> float:
        """Probability of each read quorum under the paper's strategy."""
        return 1.0 / self.num_read_quorums

    def uniform_write_weight(self) -> float:
        """Probability of each write quorum under the paper's strategy."""
        return 1.0 / self.num_write_quorums

    def sample_read_quorum(self, rng: random.Random) -> frozenset[int]:
        """Draw a read quorum from the uniform strategy ``w_read``."""
        return frozenset(rng.choice(level) for level in self._level_sids)

    def sample_write_quorum(self, rng: random.Random) -> frozenset[int]:
        """Draw a write quorum from the uniform strategy ``w_write``."""
        return frozenset(rng.choice(self._level_sids))

    # ------------------------------------------------------------------
    # failure-aware selection (used by the simulator / clients)
    # ------------------------------------------------------------------

    def select_read_quorum(
        self,
        live: Liveness,
        rng: random.Random | None = None,
    ) -> frozenset[int] | None:
        """Assemble a read quorum from live replicas, or ``None``.

        A read succeeds iff every physical level has at least one live
        replica (this is exactly the availability product of Section 3.2.1).
        When ``rng`` is given the live member of each level is picked
        uniformly at random, spreading load as the uniform strategy does;
        otherwise the first live member is taken (deterministic).
        """
        oracle = as_oracle(live)
        members: list[int] = []
        for level in self._level_sids:
            alive = [sid for sid in level if oracle(sid)]
            if not alive:
                return None
            members.append(rng.choice(alive) if rng is not None else alive[0])
        return frozenset(members)

    def select_write_quorum(
        self,
        live: Liveness,
        rng: random.Random | None = None,
    ) -> frozenset[int] | None:
        """Pick a physical level whose replicas are *all* live, or ``None``.

        A write succeeds iff some physical level is fully live (the
        availability complement of Section 3.2.2).  With ``rng`` the level is
        picked uniformly among the fully-live ones; otherwise the shallowest
        (and by Assumption 3.1 cheapest) fully-live level is used.
        """
        oracle = as_oracle(live)
        candidates = [
            frozenset(level)
            for level in self._level_sids
            if all(oracle(sid) for sid in level)
        ]
        if not candidates:
            return None
        if rng is not None:
            return rng.choice(candidates)
        return min(candidates, key=len)

    # ------------------------------------------------------------------
    # closed forms (Sections 3.2.1 / 3.2.2, Appendix 6); ``load`` and
    # ``availability`` dispatch to them through ProtocolModel
    # ------------------------------------------------------------------

    def read_cost(self) -> float:
        """One replica per physical level."""
        return float(metrics.read_cost(self._tree))

    def write_cost(self) -> float:
        """Average over the uniform write strategy: ``n / |K_phy|``."""
        return metrics.write_cost_avg(self._tree)

    def read_availability(self, p: float) -> float:
        """Per-level product form of Section 3.2.1."""
        return metrics.read_availability(self._tree, p)

    def write_availability(self, p: float) -> float:
        """Complement of the all-levels-broken product of Section 3.2.2."""
        return metrics.write_availability(self._tree, p)

    def read_load(self) -> float:
        """``1/d`` (Appendix 6.1)."""
        return metrics.read_load(self._tree)

    def write_load(self) -> float:
        """``1/|K_phy|`` (Appendix 6.2)."""
        return metrics.write_load(self._tree)

    # ------------------------------------------------------------------
    # bi-coterie view
    # ------------------------------------------------------------------

    def bicoterie(self, max_read_quorums: int = 100_000) -> BiCoterie:
        """Materialise the protocol as an explicit bi-coterie.

        Raises :class:`ValueError` when the read-quorum count exceeds
        ``max_read_quorums`` — enumeration is exponential in the number of
        physical levels, so this view is for analysis of small systems.
        Constructing the :class:`~repro.quorums.base.BiCoterie` re-validates
        the read/write intersection property from first principles.
        """
        if self.num_read_quorums > max_read_quorums:
            raise ValueError(
                f"{self.num_read_quorums} read quorums exceed the "
                f"materialisation limit of {max_read_quorums}"
            )
        return BiCoterie(
            self.read_quorums(),
            self.write_quorums(),
            universe=self.universe,
        )

    def is_bicoterie(self) -> bool:
        """Re-verify the read/write intersection property by construction.

        Cheap (no enumeration): every read quorum holds one member of every
        physical level, and every write quorum is an entire physical level,
        so it suffices that each physical level is non-empty.
        """
        return all(len(level) > 0 for level in self._level_sids)

    def __repr__(self) -> str:
        return (
            f"ArbitraryProtocol(tree={self._tree.spec()!r}, "
            f"m_R={self.num_read_quorums}, m_W={self.num_write_quorums})"
        )
