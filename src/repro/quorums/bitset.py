"""Packed-integer quorum kernel: bitmask quorums and vectorised set ops.

Every derived analysis in this library ultimately asks set questions about
quorums over a small integer universe: *is this quorum a subset of the live
set?*, *do these two quorums intersect?*, *which elements does this quorum
contain?*  Answering them through ``frozenset`` objects costs a Python-level
loop per element; this module instead packs each quorum into a bitmask —
element ``i`` of the (sorted) universe becomes bit ``i`` — so the same
questions become single AND/compare instructions, and whole quorum
*collections* become rows of a numpy ``uint64`` matrix (``ceil(n / 64)``
words per row) on which the questions vectorise across every quorum at once.

The design follows the compiled, array-oriented kernels that make Whittaker
et al., *Read-Write Quorum Systems Made Practical* (2021) practical at real
sizes.  ``frozenset`` remains the public currency at the API edges; a
collection is packed once (``PackedQuorums.from_quorums``) and every
consumer — exact availability, the Monte-Carlo estimator, bi-coterie
verification, the simulator's selection index, the Naor-Wool LP's
membership matrix — runs on the packed form.  Consumers dispatch through
:func:`try_pack`, which returns ``None`` for non-integer universes so the
generic frozenset paths keep working for arbitrary element types.

Bit-exactness contract: every kernel op performs the *same* float
operations in the *same* element order as its pure-Python reference (and
totals are reduced with ``math.fsum`` on both sides), so the agreement
tests in ``tests/quorums/test_kernel_agreement.py`` can assert ``==``, not
``approx``.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable, Mapping, Sequence

import numpy as np

#: Bits per matrix word.
WORD_BITS = 64

#: Soft cap on scratch memory (bytes) for batched broadcasts.
_BATCH_BYTES = 1 << 24


_POPCOUNT_TABLE = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint8
)


def _popcount_by_table(words: np.ndarray) -> np.ndarray:
    """Set bits per uint64 word, for numpy < 2.0 (no ``bitwise_count``)."""
    as_bytes = words.view(np.uint8).reshape(*words.shape, 8)
    return _POPCOUNT_TABLE[as_bytes].sum(axis=-1)


_popcount = getattr(np, "bitwise_count", _popcount_by_table)


def mask_to_words(mask: int, words: int) -> np.ndarray:
    """Split a Python int bitmask into little-endian 64-bit words.

    One C-level conversion (``int.to_bytes`` + ``frombuffer``); the result
    is a read-only view, which every consumer treats it as.
    """
    return np.frombuffer(
        mask.to_bytes(words * 8, "little"), dtype=np.uint64
    )


def pack_rows(
    quorums: Sequence[Collection[int]],
    index: Mapping[int, int],
    words: int,
) -> np.ndarray:
    """Pack a sequence of quorums into an ``(m, words)`` uint64 matrix.

    Per-element shifts and per-row numpy scalar assignments dominate the
    naive loop, so the masks are built as plain Python ints off a
    precomputed element -> bit-value table (``sum`` of dict gets beats
    ``|=`` of fresh shifts) and materialised with one ``np.array`` call —
    the whole pack is then a single C-level conversion per word column.
    """
    bit_value = {element: 1 << bit for element, bit in index.items()}
    getter = bit_value.__getitem__
    masks = [sum(map(getter, quorum)) for quorum in quorums]
    return _masks_to_matrix(masks, words)


def _masks_to_matrix(masks: Sequence[int], words: int) -> np.ndarray:
    """Materialise Python-int bitmasks as an ``(m, words)`` uint64 matrix."""
    if words == 1:
        return np.array(masks, dtype=np.uint64).reshape(-1, 1)
    word_mask = (1 << WORD_BITS) - 1
    columns = [
        np.array(
            [(mask >> shift) & word_mask for mask in masks], dtype=np.uint64
        )
        for shift in range(0, words * WORD_BITS, WORD_BITS)
    ]
    return np.column_stack(columns)


def pack_bool_matrix(alive: np.ndarray) -> np.ndarray:
    """Pack a ``(rows, n)`` boolean matrix into ``(rows, words)`` uint64.

    Column ``i`` becomes bit ``i`` (little-endian within and across words),
    matching the element order of :class:`PackedQuorums` built over the same
    universe.  Used to turn Monte-Carlo live/dead draws into live-set masks.
    """
    rows, n = alive.shape
    words = max(1, -(-n // WORD_BITS))
    padded = np.zeros((rows, words * WORD_BITS), dtype=np.uint8)
    padded[:, :n] = alive
    packed = np.packbits(padded, axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64)


class PackedQuorums:
    """A quorum collection packed into a ``(m, words)`` uint64 bit matrix.

    ``elements`` is the sorted universe; element ``elements[i]`` owns bit
    ``i`` (bit ``i % 64`` of word ``i // 64``).  All kernel ops are
    vectorised across the ``m`` rows.  Instances are immutable once built.
    """

    __slots__ = (
        "elements", "index", "words", "matrix", "_frozensets",
    )

    def __init__(
        self,
        matrix: np.ndarray,
        elements: tuple[int, ...],
    ) -> None:
        self.elements = elements
        self.index = {element: i for i, element in enumerate(elements)}
        self.words = matrix.shape[1] if matrix.ndim == 2 else 1
        self.matrix = matrix
        self._frozensets: tuple[frozenset[int], ...] | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_quorums(
        cls,
        quorums: Iterable[Collection[int]],
        universe: Collection[int] | None = None,
    ) -> "PackedQuorums":
        """Pack an iterable of integer quorums over a (sorted) universe."""
        rows = [frozenset(q) for q in quorums]
        if universe is None:
            union: set[int] = set()
            for quorum in rows:
                union |= quorum
            universe = union
        elements = tuple(sorted(universe))
        index = {element: i for i, element in enumerate(elements)}
        words = max(1, -(-len(elements) // WORD_BITS))
        packed = cls(pack_rows(rows, index, words), elements)
        packed._frozensets = tuple(rows)
        return packed

    @classmethod
    def from_system(cls, system, op: str = "read") -> "PackedQuorums":
        """Pack one operation's collection of a quorum system, masks first.

        Systems exposing :meth:`~repro.quorums.system.QuorumSystem.quorum_masks`
        (combinatorial protocols: subsets, cartesian covers) are packed
        straight from the integer masks — no frozenset is ever built per
        quorum, which makes packing cheaper than the frozenset enumeration
        itself.  Row order equals the frozenset enumeration order by the
        hook's contract, so enumeration-order consumers (RNG-stream
        agreement in selection) see identical collections.  Systems
        without the hook — or with a non-contiguous universe, where mask
        bit positions would not be SIDs — fall back to
        :meth:`from_quorums` over ``quorums(op)``.
        """
        masks = None
        quorum_masks = getattr(system, "quorum_masks", None)
        if quorum_masks is not None:
            masks = quorum_masks(op)
        if masks is not None:
            elements = tuple(sorted(system.universe))
            if elements == tuple(range(len(elements))):
                words = max(1, -(-len(elements) // WORD_BITS))
                return cls(_masks_to_matrix(masks, words), elements)
        return cls.from_quorums(system.quorums(op), universe=system.universe)

    # -- basic views -------------------------------------------------------

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        """Universe size."""
        return len(self.elements)

    def to_frozensets(self) -> tuple[frozenset[int], ...]:
        """Unpack back to frozensets (memoised; the public-API edge)."""
        if self._frozensets is None:
            bits = self.bit_matrix()
            self._frozensets = tuple(
                frozenset(
                    self.elements[i] for i in np.nonzero(row)[0]
                )
                for row in bits
            )
        return self._frozensets

    # -- kernel ops --------------------------------------------------------

    def live_filter(self, live_words: np.ndarray) -> np.ndarray:
        """Boolean vector: row ``j`` is True iff quorum ``j`` ⊆ live set."""
        return ((self.matrix & live_words) == self.matrix).all(axis=1)

    def popcounts(self) -> np.ndarray:
        """Per-quorum cardinalities (vectorised popcount)."""
        return _popcount(self.matrix).sum(axis=1, dtype=np.int64)

    def bit_matrix(self) -> np.ndarray:
        """The ``(m, n)`` 0/1 uint8 matrix of quorum membership."""
        as_bytes = np.ascontiguousarray(self.matrix).view(np.uint8)
        bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
        return bits[:, : self.n]

    def membership_matrix(self, dtype=float) -> np.ndarray:
        """The ``(n, m)`` element × quorum membership matrix (LP input)."""
        return self.bit_matrix().T.astype(dtype)

    def covered(
        self,
        live_matrix: np.ndarray,
        check_every: int = 64,
    ) -> np.ndarray:
        """Which live-set rows contain at least one quorum.

        ``live_matrix`` is ``(rows, words)`` uint64 (see
        :func:`pack_bool_matrix`).  Quorums are tested in batches sized to
        bound scratch memory; after each batch a single ``hit.all()`` check
        allows early exit, so the periodic-scan cost is O(rows · m / batch)
        instead of the reference's O(rows · m).
        """
        rows = live_matrix.shape[0]
        hit = np.zeros(rows, dtype=bool)
        if not len(self):
            return hit
        if self.words == 1:
            # Single-word universes have at most 2^n distinct live masks —
            # usually far fewer than the sample count — so test each unique
            # mask once and scatter the verdicts back.  Identical results,
            # |unique| / rows of the work.
            unique, inverse = np.unique(
                live_matrix[:, 0], return_inverse=True
            )
            unique_hit = np.zeros(unique.shape, dtype=bool)
            per_mask = max(1, unique.shape[0] * 8)
            batch = max(1, min(check_every, _BATCH_BYTES // per_mask))
            masks = self.matrix[:, 0]
            for start in range(0, len(self), batch):
                block = masks[start : start + batch]
                unique_hit |= (
                    (unique[:, None] & block[None, :]) == block[None, :]
                ).any(axis=1)
                if unique_hit.all():
                    break
            return unique_hit[inverse]
        per_row = max(1, rows * self.words * 8)
        batch = max(1, min(check_every, _BATCH_BYTES // per_row))
        for start in range(0, len(self), batch):
            block = self.matrix[start : start + batch]
            sub = (live_matrix[:, None, :] & block[None, :, :]) == block
            hit |= sub.all(axis=2).any(axis=1)
            if hit.all():
                break
        return hit

    def cross_intersects(self, other: "PackedQuorums") -> bool:
        """True iff every row here intersects every row of ``other``.

        Both collections must be packed over the same universe (same
        element → bit mapping); :meth:`from_quorums` with an explicit
        shared universe, or :func:`try_pack_pair`, guarantees that.
        """
        if self.elements != other.elements:
            raise ValueError("collections packed over different universes")
        if not len(self) or not len(other):
            # Empty double loop: vacuously true, matching the reference.
            return True
        per_row = max(1, len(other) * self.words * 8)
        batch = max(1, _BATCH_BYTES // per_row)
        theirs = other.matrix
        for start in range(0, len(self), batch):
            block = self.matrix[start : start + batch]
            meets = (block[:, None, :] & theirs[None, :, :]).any(axis=2)
            if not meets.all():
                return False
        return True

    def superset_counts(self) -> np.ndarray:
        """For each row, how many rows (itself included) contain it.

        A collection is an antichain iff every count is exactly one.
        """
        counts = np.empty(len(self), dtype=np.int64)
        for row in range(len(self)):
            mask = self.matrix[row]
            counts[row] = int(
                ((self.matrix & mask) == mask).all(axis=1).sum()
            )
        return counts

    def __repr__(self) -> str:
        return (
            f"PackedQuorums(m={len(self)}, n={self.n}, words={self.words})"
        )


# ---------------------------------------------------------------------------
# dispatch helpers
# ---------------------------------------------------------------------------


def packable_universe(universe: Iterable) -> bool:
    """True iff every universe element is a plain int (maskable)."""
    return all(isinstance(element, int) for element in universe)


def try_pack(
    quorums: Iterable[Collection],
    universe: Collection | None = None,
) -> PackedQuorums | None:
    """Pack when the universe is all-int; ``None`` sends callers to the
    frozenset reference path (generic element types)."""
    rows = [frozenset(q) for q in quorums]
    if universe is None:
        union: set = set()
        for quorum in rows:
            union |= quorum
        universe = union
    if not packable_universe(universe):
        return None
    return PackedQuorums.from_quorums(rows, universe=universe)


def try_pack_pair(
    reads: Iterable[Collection],
    writes: Iterable[Collection],
) -> tuple[PackedQuorums, PackedQuorums] | None:
    """Pack two collections over their shared (union) universe."""
    read_rows = [frozenset(q) for q in reads]
    write_rows = [frozenset(q) for q in writes]
    union: set = set()
    for quorum in read_rows:
        union |= quorum
    for quorum in write_rows:
        union |= quorum
    if not packable_universe(union):
        return None
    universe = frozenset(union)
    return (
        PackedQuorums.from_quorums(read_rows, universe=universe),
        PackedQuorums.from_quorums(write_rows, universe=universe),
    )


# ---------------------------------------------------------------------------
# availability kernels
# ---------------------------------------------------------------------------


def _probability_vectors(
    packed: PackedQuorums,
    probabilities: Mapping[int, float],
) -> np.ndarray:
    return np.array(
        [float(probabilities[element]) for element in packed.elements]
    )


def availability_by_universe_enumeration(
    packed: PackedQuorums,
    probabilities: Mapping[int, float],
) -> float:
    """Vectorised 2^n live-set enumeration (kernel twin of the reference).

    Enumerates every live set as an integer mask, marks the masks containing
    at least one quorum with one AND/compare pass per quorum, accumulates
    each live set's probability with one multiply pass per element (same
    multiplication order as the reference loop), and ``fsum``s the marked
    probabilities — bit-identical to the pure-Python path.
    """
    n = packed.n
    if n > 26:  # 2^26 doubles ≈ 0.5 GiB of scratch; callers guard earlier.
        raise ValueError(f"universe of {n} too large to enumerate")
    live = np.arange(1 << n, dtype=np.uint64)
    hit = np.zeros(live.shape, dtype=bool)
    for mask in np.unique(packed.matrix[:, 0]):
        hit |= (live & mask) == mask
    probability = np.ones(live.shape)
    one = np.uint64(1)
    for i, element in enumerate(packed.elements):
        p_i = float(probabilities[element])
        bit = (live >> np.uint64(i)) & one
        probability *= np.where(bit.astype(bool), p_i, 1.0 - p_i)
    return math.fsum(probability[hit].tolist())


def availability_by_inclusion_exclusion(
    packed: PackedQuorums,
    probabilities: Mapping[int, float],
) -> float:
    """Vectorised 2^m inclusion-exclusion over quorum subsets.

    Builds the union mask of every subset of quorums with one OR pass per
    quorum, the union's fully-live probability with one multiply pass per
    element (ascending element order, like the reference), signs terms by
    subset-popcount parity, and ``fsum``s — bit-identical to the reference.
    """
    m = len(packed)
    if m > 24:
        raise ValueError(f"{m} quorums too many for inclusion-exclusion")
    subsets = np.arange(1 << m, dtype=np.uint64)
    unions = np.zeros(((1 << m), packed.words), dtype=np.uint64)
    one = np.uint64(1)
    for j in range(m):
        member = ((subsets >> np.uint64(j)) & one).astype(bool)
        unions[member] |= packed.matrix[j]
    probability = np.ones(1 << m)
    for i, element in enumerate(packed.elements):
        word, bit = divmod(i, WORD_BITS)
        present = ((unions[:, word] >> np.uint64(bit)) & one).astype(bool)
        probability *= np.where(present, float(probabilities[element]), 1.0)
    sign = np.where(_popcount(subsets) % 2 == 1, 1.0, -1.0)
    terms = sign[1:] * probability[1:]  # skip the empty subset
    return math.fsum(terms.tolist())


def estimate_availability_monte_carlo_packed(
    packed: PackedQuorums,
    probabilities: Mapping[int, float],
    samples: int,
    seed: int | None,
) -> float:
    """Vectorised Monte-Carlo availability on a packed collection.

    Draws the same ``(samples, n)`` uniform matrix as the reference (same
    generator, same stream), packs each sample row into a live-set mask,
    and tests quorum containment with batched word ops instead of per-quorum
    column gathers.  The early-exit check runs once per batch, fixing the
    reference's O(m · samples) per-quorum ``hit.all()`` scans.
    """
    p_vector = _probability_vectors(packed, probabilities)
    rng = np.random.default_rng(seed)
    alive = rng.random((samples, packed.n)) < p_vector
    live_matrix = pack_bool_matrix(alive)
    hit = packed.covered(live_matrix)
    return float(hit.mean())
