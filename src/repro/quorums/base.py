"""Set systems, quorum systems, coteries and bi-coteries.

These are Definitions 2.1-2.3 of the paper (themselves standard notions from
the quorum-system literature).  A *set system* is a collection of subsets of
a finite universe; a *quorum system* additionally satisfies the pairwise
intersection property; a *coterie* is a quorum system in which no quorum
contains another; and a *bi-coterie* keeps separate read and write quorum
collections such that every read quorum intersects every write quorum.

Quorums are stored as ``frozenset`` instances so they are hashable and
immutable; universes are stored as ``frozenset`` as well.  Element type is
generic but in this library elements are almost always replica identifiers
(small integers) — integer collections are dispatched to the packed bitmask
kernel in :mod:`repro.quorums.bitset`, with the pure-Python frozenset loops
kept both as the generic-element fallback and as the reference the kernel
is property-tested against.
"""

from __future__ import annotations

from collections.abc import Collection, Hashable, Iterable, Iterator
from typing import TypeVar


Element = TypeVar("Element", bound=Hashable)


def _freeze(sets: Iterable[Collection[Element]]) -> tuple[frozenset[Element], ...]:
    """Normalise an iterable of collections into a tuple of frozensets."""
    return tuple(frozenset(s) for s in sets)


def _is_intersecting_sets(frozen: tuple[frozenset[Element], ...]) -> bool:
    """Pure-Python pairwise intersection check (kernel reference path)."""
    for i, a in enumerate(frozen):
        for b in frozen[i + 1 :]:
            if a.isdisjoint(b):
                return False
    return True


def is_intersecting(sets: Iterable[Collection[Element]]) -> bool:
    """Return True iff every pair of sets has a non-empty intersection.

    This is the defining property of a quorum system (Definition 2.1).
    The check is quadratic in the number of sets; integer universes run on
    the bitset kernel (one vectorised AND per set against all others).
    """
    from repro.quorums.bitset import try_pack  # numpy, for analyses only

    frozen = _freeze(sets)
    packed = try_pack(frozen)
    if packed is not None:
        # Self cross-intersection: the diagonal (a vs a) holds for every
        # non-empty set, and an empty set fails against itself exactly as
        # it fails pairwise in the reference — so the checks coincide
        # whenever there is more than one set.
        if len(frozen) <= 1:
            return True
        return packed.cross_intersects(packed)
    return _is_intersecting_sets(frozen)


def is_antichain(sets: Iterable[Collection[Element]]) -> bool:
    """Return True iff no set in the collection is a subset of another.

    This is the minimality property of a coterie (Definition 2.2).
    Duplicate sets violate the property (each is a subset of the other).
    """
    frozen = _freeze(sets)
    for i, a in enumerate(frozen):
        for j, b in enumerate(frozen):
            if i != j and a <= b:
                return False
    return True


def _is_cross_intersecting_sets(
    reads: Iterable[Collection[Element]],
    writes: Iterable[Collection[Element]],
) -> bool:
    """Pure-Python O(R·W) pairwise check (kernel reference path)."""
    frozen_writes = _freeze(writes)
    for read in reads:
        read_set = frozenset(read)
        for write in frozen_writes:
            if read_set.isdisjoint(write):
                return False
    return True


def is_cross_intersecting(
    reads: Iterable[Collection[Element]], writes: Iterable[Collection[Element]]
) -> bool:
    """Return True iff every read set intersects every write set.

    This is the bi-coterie property (Definition 2.3) and the correctness
    condition for one-copy-equivalent replica control: a read quorum must
    always see at least one replica touched by the latest write.  Integer
    universes are checked on the bitset kernel — all R·W pairs tested with
    batched word-wise ANDs instead of per-pair ``isdisjoint`` calls.
    """
    from repro.quorums.bitset import try_pack_pair  # numpy, for analyses only

    frozen_reads = _freeze(reads)
    frozen_writes = _freeze(writes)
    packed = try_pack_pair(frozen_reads, frozen_writes)
    if packed is not None:
        packed_reads, packed_writes = packed
        return packed_reads.cross_intersects(packed_writes)
    return _is_cross_intersecting_sets(frozen_reads, frozen_writes)


class SetSystem:
    """A collection of subsets of a finite universe (Definition 2.1).

    Parameters
    ----------
    quorums:
        The member sets.  They are deduplicated only by identity of content
        order, i.e. identical sets are kept once.
    universe:
        The ground set.  If omitted it defaults to the union of the quorums.

    Raises
    ------
    ValueError
        If any quorum is empty or contains elements outside the universe.
    """

    def __init__(
        self,
        quorums: Iterable[Collection[Element]],
        universe: Collection[Element] | None = None,
    ) -> None:
        self._quorums = _freeze(quorums)
        if universe is None:
            union: set[Element] = set()
            for quorum in self._quorums:
                union |= quorum
            self._universe = frozenset(union)
        else:
            self._universe = frozenset(universe)
        self._validate()

    def _validate(self) -> None:
        if not self._quorums:
            raise ValueError("a set system needs at least one set")
        for quorum in self._quorums:
            if not quorum:
                raise ValueError("quorums must be non-empty")
            if not quorum <= self._universe:
                stray = sorted(quorum - self._universe)
                raise ValueError(f"quorum elements outside universe: {stray}")

    @property
    def quorums(self) -> tuple[frozenset[Element], ...]:
        """The member sets, in construction order."""
        return self._quorums

    @property
    def universe(self) -> frozenset[Element]:
        """The ground set the quorums are drawn from."""
        return self._universe

    def __len__(self) -> int:
        return len(self._quorums)

    def __iter__(self) -> Iterator[frozenset[Element]]:
        return iter(self._quorums)

    def __contains__(self, candidate: Collection[Element]) -> bool:
        return frozenset(candidate) in self._quorums

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(m={len(self._quorums)}, "
            f"n={len(self._universe)})"
        )

    def smallest_quorum_size(self) -> int:
        """Size of the smallest quorum (drives the Naor-Wool load bound)."""
        return min(len(q) for q in self._quorums)

    def largest_quorum_size(self) -> int:
        """Size of the largest quorum."""
        return max(len(q) for q in self._quorums)

    def element_frequencies(self) -> dict[Element, int]:
        """Map each universe element to the number of quorums containing it."""
        counts: dict[Element, int] = {element: 0 for element in self._universe}
        for quorum in self._quorums:
            for element in quorum:
                counts[element] += 1
        return counts


class QuorumSystem(SetSystem):
    """A set system with the pairwise intersection property (Definition 2.1)."""

    def _validate(self) -> None:
        super()._validate()
        if not is_intersecting(self._quorums):
            raise ValueError("quorum system violates the intersection property")


class Coterie(QuorumSystem):
    """A quorum system with the minimality property (Definition 2.2)."""

    def _validate(self) -> None:
        super()._validate()
        if not is_antichain(self._quorums):
            raise ValueError("coterie violates the minimality property")


class BiCoterie:
    """Separate read and write quorum collections (Definition 2.3).

    Every read quorum must intersect every write quorum; read quorums need
    not intersect each other, and likewise for writes.  The paper's arbitrary
    protocol is a bi-coterie, as are ROWA and most read/write-asymmetric
    replica control protocols.

    Note that the write quorums of a *correct replica control protocol* are
    normally also required to intersect each other (so two concurrent writes
    serialise); the paper relies on a centralised concurrency-control scheme
    (Section 2.2) for write/write synchronisation, so Definition 2.3 only
    demands read/write intersection.  :meth:`writes_intersect` reports the
    stronger property for callers that want it.
    """

    def __init__(
        self,
        read_quorums: Iterable[Collection[Element]],
        write_quorums: Iterable[Collection[Element]],
        universe: Collection[Element] | None = None,
    ) -> None:
        reads = _freeze(read_quorums)
        writes = _freeze(write_quorums)
        if not reads:
            raise ValueError("a bi-coterie needs at least one read quorum")
        if not writes:
            raise ValueError("a bi-coterie needs at least one write quorum")
        if universe is None:
            union: set[Element] = set()
            for quorum in reads + writes:
                union |= quorum
            universe = union
        self._universe = frozenset(universe)
        for quorum in reads + writes:
            if not quorum:
                raise ValueError("quorums must be non-empty")
            if not quorum <= self._universe:
                stray = sorted(quorum - self._universe)
                raise ValueError(f"quorum elements outside universe: {stray}")
        if not is_cross_intersecting(reads, writes):
            raise ValueError(
                "bi-coterie violates the read/write intersection property"
            )
        self._reads = reads
        self._writes = writes

    @property
    def read_quorums(self) -> tuple[frozenset[Element], ...]:
        """The read quorum collection R."""
        return self._reads

    @property
    def write_quorums(self) -> tuple[frozenset[Element], ...]:
        """The write quorum collection W."""
        return self._writes

    @property
    def universe(self) -> frozenset[Element]:
        """The ground set."""
        return self._universe

    def writes_intersect(self) -> bool:
        """True iff the write quorums pairwise intersect (coterie-style)."""
        return is_intersecting(self._writes)

    def reads_intersect(self) -> bool:
        """True iff the read quorums pairwise intersect."""
        return is_intersecting(self._reads)

    def as_read_system(self) -> SetSystem:
        """The read quorums as a plain set system (for load analysis)."""
        return SetSystem(self._reads, universe=self._universe)

    def as_write_system(self) -> SetSystem:
        """The write quorums as a plain set system (for load analysis)."""
        return SetSystem(self._writes, universe=self._universe)

    def __repr__(self) -> str:
        return (
            f"BiCoterie(m_R={len(self._reads)}, m_W={len(self._writes)}, "
            f"n={len(self._universe)})"
        )
