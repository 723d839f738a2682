"""The first-class read/write quorum-system layer.

Before this module existed, quorum logic was split across four incompatible
interfaces: :class:`~repro.core.protocol.ArbitraryProtocol` (the paper's
protocol), the analytic :class:`~repro.protocols.base.ProtocolModel` zoo
with ad-hoc ``construct_quorum`` methods, the explicit
:class:`~repro.quorums.base.BiCoterie` machinery, and the simulator's
structural quorum-policy adapter.  Following the design argued for in
Whittaker et al., *Read-Write Quorum Systems Made Practical* (2021), this
module unifies them: a :class:`QuorumSystem` is *the* object every consumer
(simulator, analysis, CLI, benchmarks) programs against.

A concrete system provides a universe of replica SIDs and its read/write
quorum collections; everything else — strategies, optimal load, exact or
Monte-Carlo availability, bi-coterie materialisation, failure-aware quorum
selection — is derived generically here, once, instead of per protocol.
Protocols with known closed forms (every model in :mod:`repro.protocols`)
override the derived methods with O(1) formulas; protocols with structural
selectors override ``select_read_quorum``/``select_write_quorum`` so the
simulator never enumerates.  The derived analyses import their numpy and
scipy kernels when they are called, so a process that only selects
quorums — a coordinator, a simulator — never loads either.
"""

from __future__ import annotations

import abc
import random
from collections.abc import Iterator

from repro.quorums.base import BiCoterie, is_cross_intersecting
from repro.quorums.liveness import ALL_LIVE, Liveness, as_oracle
from repro.quorums.strategy import Strategy

#: Default guard on quorum materialisation (enumeration is exponential for
#: most protocols; derived analyses are meant for small/medium instances).
DEFAULT_MAX_QUORUMS = 200_000

_OPS = ("read", "write")


def _check_op(op: str) -> None:
    if op not in _OPS:
        raise ValueError(f"op must be 'read' or 'write', got {op!r}")


class QuorumSystem(abc.ABC):
    """A read/write quorum system over integer replica identifiers.

    The minimal contract is ``universe`` plus lazy ``read_quorums()`` /
    ``write_quorums()`` iteration; every read quorum must intersect every
    write quorum (the bi-coterie property, re-checkable via
    :meth:`is_bicoterie`).  All other behaviour has generic defaults:

    * :meth:`select_read_quorum` / :meth:`select_write_quorum` — assemble a
      quorum of live replicas (failure fallback), defaulting to a scan of
      the enumerated quorums; structural protocols override with their
      recursive constructions;
    * :meth:`sample_read_quorum` / :meth:`sample_write_quorum` — draw from
      the failure-free selection distribution;
    * :meth:`strategy`, :meth:`load`, :meth:`load_vector`,
      :meth:`availability` — the Naor-Wool analyses, derived from the
      enumerated quorums via the LP and exact/Monte-Carlo machinery.
    """

    #: Human-readable system name (used in tables and bench output).
    name: str = "quorum-system"

    #: Distribution contract consumed by the simulator's selection fast
    #: path (:class:`repro.quorums.selection.SelectionIndex`): True iff
    #: ``select_read_quorum`` / ``select_write_quorum`` draw **uniformly**
    #: among the quorums that are subsets of the live set.  The generic
    #: reservoir scan below has exactly that distribution, so the default
    #: is True; subclasses overriding selection with a *non-uniform*
    #: structural construction (primary-path preference, recursive subtree
    #: orderings) MUST set this to False or the fast path would change
    #: their measured costs and loads.
    uniform_selection: bool = True

    @property
    @abc.abstractmethod
    def universe(self) -> frozenset[int]:
        """All replica SIDs the quorums are drawn from."""

    @property
    def n(self) -> int:
        """Number of replicas in the system."""
        return len(self.universe)

    @abc.abstractmethod
    def read_quorums(self) -> Iterator[frozenset[int]]:
        """Lazily enumerate every read quorum."""

    @abc.abstractmethod
    def write_quorums(self) -> Iterator[frozenset[int]]:
        """Lazily enumerate every write quorum."""

    # ------------------------------------------------------------------
    # enumeration helpers
    # ------------------------------------------------------------------

    def quorums(self, op: str = "read") -> Iterator[frozenset[int]]:
        """The quorum collection of one operation, by name."""
        _check_op(op)
        return iter(self.read_quorums() if op == "read" else self.write_quorums())

    def quorum_masks(self, op: str = "read") -> list[int] | None:
        """The quorum collection as integer bitmasks (bit ``i`` = SID ``i``),
        or ``None`` when only the frozenset enumeration exists.

        Protocols whose collections come from simple combinatorial
        structure (subsets, cartesian covers) override this to enumerate
        masks directly — the *same* collection in the *same* row order as
        the frozenset enumeration, without materialising a frozenset per
        quorum.  :meth:`PackedQuorums.from_system
        <repro.quorums.bitset.PackedQuorums.from_system>` consumes it to
        build the packed matrix straight from the masks.  Only meaningful
        for contiguous ``0..n-1`` universes.
        """
        _check_op(op)
        return None

    def materialise(
        self, op: str = "read", max_quorums: int = DEFAULT_MAX_QUORUMS
    ) -> tuple[frozenset[int], ...]:
        """Materialise one quorum collection, guarded against explosion."""
        quorums: list[frozenset[int]] = []
        for quorum in self.quorums(op):
            quorums.append(quorum)
            if len(quorums) > max_quorums:
                raise ValueError(
                    f"more than {max_quorums} {op} quorums of {self.name}; "
                    "raise max_quorums or use a closed form"
                )
        return tuple(quorums)

    # ------------------------------------------------------------------
    # failure-aware selection (the simulator's interface)
    # ------------------------------------------------------------------

    def select_read_quorum(
        self, live: Liveness, rng: random.Random | None = None
    ) -> frozenset[int] | None:
        """A read quorum of live replicas, or ``None`` when unavailable.

        Generic fallback: scan the enumerated read quorums for fully-live
        ones — correct for any system, but linear in the quorum count.
        Structural protocols override this with their recursive selectors.
        With ``rng`` the choice among viable quorums is randomised
        (reservoir sampling, so enumeration stays lazy); without it the
        first viable quorum is returned, deterministically.
        """
        return self._select_by_scan(self.read_quorums(), live, rng)

    def select_write_quorum(
        self, live: Liveness, rng: random.Random | None = None
    ) -> frozenset[int] | None:
        """A write quorum of live replicas, or ``None`` when unavailable."""
        return self._select_by_scan(self.write_quorums(), live, rng)

    @staticmethod
    def _select_by_scan(
        quorums: Iterator[frozenset[int]],
        live: Liveness,
        rng: random.Random | None,
    ) -> frozenset[int] | None:
        """Reservoir scan: one ``rng.randrange`` per viable quorum, in
        enumeration order, so each viable quorum is equally likely."""
        oracle = as_oracle(live)
        chosen: frozenset[int] | None = None
        viable = 0
        for quorum in quorums:
            if not all(oracle(sid) for sid in quorum):
                continue
            if rng is None:
                return quorum
            viable += 1
            if rng.randrange(viable) == 0:
                chosen = quorum
        return chosen

    # ------------------------------------------------------------------
    # failure-free sampling
    # ------------------------------------------------------------------

    def sample_read_quorum(self, rng: random.Random) -> frozenset[int]:
        """Draw a read quorum from the failure-free selection distribution."""
        quorum = self.select_read_quorum(ALL_LIVE, rng)
        assert quorum is not None  # every system has at least one quorum
        return quorum

    def sample_write_quorum(self, rng: random.Random) -> frozenset[int]:
        """Draw a write quorum from the failure-free selection distribution."""
        quorum = self.select_write_quorum(ALL_LIVE, rng)
        assert quorum is not None
        return quorum

    # ------------------------------------------------------------------
    # derived analyses (Naor-Wool machinery, computed once and generically)
    # ------------------------------------------------------------------

    def strategy(self, op: str = "read") -> Strategy:
        """A load-optimal strategy over one quorum collection (LP primal)."""
        from repro.quorums.load import optimal_operation_load

        return optimal_operation_load(self, op).strategy

    def load(self, op: str = "read") -> float:
        """The optimal system load of one operation (Definition 2.5)."""
        from repro.quorums.load import optimal_operation_load

        return optimal_operation_load(self, op).load

    def load_vector(self, op: str = "read") -> dict[int, float]:
        """Per-replica load under a load-optimal strategy of one operation."""
        return self.strategy(op).element_loads()

    def availability(
        self,
        p: float,
        op: str = "read",
        samples: int = 100_000,
        seed: int | None = 0,
    ) -> float:
        """Probability some quorum of one operation is fully live.

        ``samples``/``seed`` parameterise the Monte-Carlo estimator when
        the system is too large for the exact computation.
        """
        from repro.quorums.availability import operation_availability

        return operation_availability(self, p, op, samples=samples, seed=seed)

    # ------------------------------------------------------------------
    # structure checks
    # ------------------------------------------------------------------

    def bicoterie(self, max_quorums: int = 100_000) -> BiCoterie:
        """Materialise the system as an explicit, validated bi-coterie."""
        return BiCoterie(
            self.materialise("read", max_quorums),
            self.materialise("write", max_quorums),
            universe=self.universe,
        )

    def is_bicoterie(self, max_quorums: int = 100_000) -> bool:
        """Re-verify that every read quorum intersects every write quorum."""
        return is_cross_intersecting(
            self.materialise("read", max_quorums),
            self.materialise("write", max_quorums),
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, n={self.n})"
