"""Availability of quorum systems under independent fail-stop replicas.

The paper assumes every replica is up independently with the same probability
``p = 1 - q`` (Section 2.2), and an operation is *available* when at least one
of its quorums consists entirely of live replicas.  This module provides:

* :func:`exact_availability` — exact probability, computed either by
  enumerating live-set configurations (2^n, good for small universes) or by
  inclusion-exclusion over the quorum list (2^m, good for few quorums);
* :func:`estimate_availability_monte_carlo` — a vectorised numpy estimator
  for systems too large for exact computation;
* :func:`system_availability` — a dispatcher choosing a method automatically.

Integer universes (the only kind this library produces) run on the packed
bitmask kernel of :mod:`repro.quorums.bitset`: live sets become integer
masks, quorum-containment becomes vectorised AND/compare passes, and the
Monte-Carlo estimator tests whole sample batches against packed quorum
words.  The pure-Python frozenset paths are kept as the generic-element
fallback and as the bit-exact reference the kernel is tested against
(``tests/quorums/test_kernel_agreement.py``); both sides reduce with
``math.fsum`` and multiply probabilities in ascending element order, so
kernel and reference agree to the last bit.  Every entry point also accepts
a pre-built :class:`~repro.quorums.bitset.PackedQuorums` to skip re-packing.

The closed-form per-level products used by the paper for the arbitrary
protocol (Sections 3.2.1-3.2.2) live in :mod:`repro.core.metrics`; the tests
cross-check them against the exact computations here.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Hashable, Iterable, Mapping
from itertools import combinations
from typing import TypeVar

import numpy as np

from repro.quorums.bitset import (
    PackedQuorums,
    availability_by_inclusion_exclusion,
    availability_by_universe_enumeration,
    estimate_availability_monte_carlo_packed,
    try_pack,
)

Element = TypeVar("Element", bound=Hashable)

_EXACT_UNIVERSE_LIMIT = 22
_EXACT_QUORUM_LIMIT = 20

#: How often (in quorums) the reference Monte-Carlo loop re-checks whether
#: every sample is already covered.  Checking after *every* quorum — the
#: pre-kernel behaviour — cost O(m · samples) in pure scan overhead.
_EARLY_EXIT_STRIDE = 32


def _normalise_probabilities(
    universe: Collection[Element],
    p: float | Mapping[Element, float],
) -> dict[Element, float]:
    """Expand a scalar or per-element mapping into per-element probabilities."""
    if isinstance(p, Mapping):
        probabilities = {element: float(p[element]) for element in universe}
    else:
        probabilities = {element: float(p) for element in universe}
    for element, value in probabilities.items():
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"availability of {element!r} is {value}, not in [0,1]")
    return probabilities


def _coerce(
    quorums: Iterable[Collection[Element]] | PackedQuorums,
    universe: Collection[Element] | None,
) -> tuple[tuple[frozenset[Element], ...], Collection[Element], PackedQuorums | None]:
    """Normalise quorum input into (frozensets, universe, packed-or-None)."""
    if isinstance(quorums, PackedQuorums):
        return quorums.to_frozensets(), quorums.elements, quorums
    frozen = tuple(frozenset(q) for q in quorums)
    if universe is None:
        universe = frozenset().union(*frozen) if frozen else frozenset()
    return frozen, universe, None


def _availability_by_universe_enumeration(
    quorums: tuple[frozenset[Element], ...],
    probabilities: dict[Element, float],
) -> float:
    """Sum P(live-set) over all live-sets containing at least one quorum.

    Pure-Python reference for the kernel's vectorised enumeration; both
    multiply per-element probabilities in ascending element order and reduce
    with ``fsum``, so their results are bit-identical.
    """
    elements = sorted(probabilities)
    n = len(elements)
    index = {element: i for i, element in enumerate(elements)}
    quorum_masks = [
        sum(1 << index[element] for element in quorum) for quorum in quorums
    ]
    totals: list[float] = []
    for live in range(1 << n):
        if not any(live & mask == mask for mask in quorum_masks):
            continue
        probability = 1.0
        for i, element in enumerate(elements):
            p_i = probabilities[element]
            probability *= p_i if live & (1 << i) else 1.0 - p_i
        totals.append(probability)
    return math.fsum(totals)


def _availability_by_inclusion_exclusion(
    quorums: tuple[frozenset[Element], ...],
    probabilities: dict[Element, float],
) -> float:
    """P(union of 'quorum fully live' events) via inclusion-exclusion.

    Pure-Python reference for the kernel's vectorised subset sweep; union
    probabilities multiply in ascending element order and terms reduce with
    ``fsum``, matching the kernel bit for bit.
    """
    terms: list[float] = []
    m = len(quorums)
    for size in range(1, m + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        for subset in combinations(quorums, size):
            union: frozenset[Element] = frozenset().union(*subset)
            probability = 1.0
            for element in sorted(union):
                probability *= probabilities[element]
            terms.append(sign * probability)
    return math.fsum(terms)


def exact_availability(
    quorums: Iterable[Collection[Element]] | PackedQuorums,
    p: float | Mapping[Element, float],
    universe: Collection[Element] | None = None,
) -> float:
    """Exact probability that at least one quorum is fully live.

    Chooses universe enumeration (``2^n``) or inclusion-exclusion (``2^m``)
    depending on which is cheaper; raises :class:`ValueError` when both the
    universe and the quorum list are too large — use the Monte-Carlo
    estimator or a protocol-specific closed form instead.  Integer universes
    run on the bitset kernel; pass a pre-built
    :class:`~repro.quorums.bitset.PackedQuorums` to skip re-packing.
    """
    frozen, universe, packed = _coerce(quorums, universe)
    probabilities = _normalise_probabilities(universe, p)
    if not frozen:
        return 0.0
    if packed is None:
        packed = try_pack(frozen, universe)
    if len(probabilities) <= _EXACT_UNIVERSE_LIMIT:
        if packed is not None:
            return availability_by_universe_enumeration(packed, probabilities)
        return _availability_by_universe_enumeration(frozen, probabilities)
    if len(frozen) <= _EXACT_QUORUM_LIMIT:
        if packed is not None:
            return availability_by_inclusion_exclusion(packed, probabilities)
        return _availability_by_inclusion_exclusion(frozen, probabilities)
    raise ValueError(
        f"system too large for exact availability "
        f"(n={len(probabilities)}, m={len(frozen)}); "
        "use estimate_availability_monte_carlo"
    )


def _estimate_monte_carlo_reference(
    quorums: tuple[frozenset[Element], ...],
    probabilities: dict[Element, float],
    samples: int,
    seed: int | None,
) -> float:
    """Pre-kernel Monte-Carlo loop: per-quorum column gathers.

    Kept as the reference the packed estimator is tested against — both
    draw the same RNG stream, so the sampled live/dead matrix (and hence
    the estimate) is bit-identical.  The ``hit.all()`` early exit runs every
    ``_EARLY_EXIT_STRIDE`` quorums instead of after each one.
    """
    elements = sorted(probabilities)
    index = {element: i for i, element in enumerate(elements)}
    p_vector = np.array([probabilities[element] for element in elements])

    rng = np.random.default_rng(seed)
    alive = rng.random((samples, len(elements))) < p_vector  # (samples, n)

    hit = np.zeros(samples, dtype=bool)
    for count, quorum in enumerate(quorums, start=1):
        columns = [index[element] for element in quorum]
        hit |= alive[:, columns].all(axis=1)
        if count % _EARLY_EXIT_STRIDE == 0 and hit.all():
            break
    return float(hit.mean())


def estimate_availability_monte_carlo(
    quorums: Iterable[Collection[Element]] | PackedQuorums,
    p: float | Mapping[Element, float],
    universe: Collection[Element] | None = None,
    samples: int = 100_000,
    seed: int | None = 0,
) -> float:
    """Monte-Carlo estimate of quorum-system availability.

    Draws ``samples`` independent live/dead configurations of the universe
    and reports the fraction in which some quorum is fully live.  The default
    fixed seed makes results reproducible; pass ``seed=None`` for fresh
    randomness.  Integer universes run on the bitset kernel: samples are
    packed into live-set masks and whole quorum batches are tested with
    word-wise ANDs, with one early-exit check per batch.
    """
    frozen, universe, packed = _coerce(quorums, universe)
    probabilities = _normalise_probabilities(universe, p)
    if not frozen:
        return 0.0
    if packed is None:
        packed = try_pack(frozen, universe)
    if packed is not None:
        return estimate_availability_monte_carlo_packed(
            packed, probabilities, samples, seed
        )
    return _estimate_monte_carlo_reference(frozen, probabilities, samples, seed)


def system_availability(
    quorums: Iterable[Collection[Element]] | PackedQuorums,
    p: float | Mapping[Element, float],
    universe: Collection[Element] | None = None,
    samples: int = 100_000,
    seed: int | None = 0,
) -> float:
    """Availability via the exact method when feasible, else Monte-Carlo."""
    frozen, universe, packed = _coerce(quorums, universe)
    source = packed if packed is not None else frozen
    n = len(frozenset(universe))
    if n <= _EXACT_UNIVERSE_LIMIT or len(frozen) <= _EXACT_QUORUM_LIMIT:
        return exact_availability(source, p, universe=universe)
    return estimate_availability_monte_carlo(
        source, p, universe=universe, samples=samples, seed=seed
    )


def operation_availability(
    system,
    p: float | Mapping[Element, float],
    op: str = "read",
    samples: int = 100_000,
    seed: int | None = 0,
    max_quorums: int = 200_000,
) -> float:
    """Availability of one operation of a quorum system.

    ``system`` is anything implementing the
    :class:`~repro.quorums.system.QuorumSystem` interface (``universe`` plus
    ``read_quorums()``/``write_quorums()``); ``op`` selects the quorum
    collection.  Dispatches to :func:`system_availability`, i.e. exact where
    feasible and Monte-Carlo otherwise.  Enumeration goes through
    ``system.materialise`` when available, which guards it with
    ``max_quorums``.
    """
    if op not in ("read", "write"):
        raise ValueError(f"op must be 'read' or 'write', got {op!r}")
    if hasattr(system, "materialise"):
        quorums = system.materialise(op, max_quorums)
    else:  # pragma: no cover - duck-typed minimal systems
        quorums = system.read_quorums() if op == "read" else system.write_quorums()
    return system_availability(
        quorums, p, universe=system.universe, samples=samples, seed=seed
    )


def best_not_to_replicate(p: float) -> bool:
    """Peleg-Wool criterion: with per-replica availability below 1/2 the
    most available "quorum system" is a single centralised site (the paper
    cites this to justify assuming ``p > 1/2``)."""
    return p < 0.5
