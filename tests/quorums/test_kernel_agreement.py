"""Cross-protocol agreement: bitset kernel vs. frozenset reference paths.

For every protocol in the zoo (plus n = 1 and multi-word n > 64 edge
systems) the packed kernel must reproduce the pure-Python reference
*bit-identically*: exact availability (both enumeration regimes), the
Monte-Carlo estimator under one RNG stream, bi-coterie verification,
LP membership matrices and loads, and failure-aware selection under
identical ``random.Random`` streams.
"""

import random

import numpy as np
import pytest

from repro.protocols.zoo import PROTOCOL_NAMES, quorum_system
from repro.quorums.availability import (
    _availability_by_inclusion_exclusion,
    _availability_by_universe_enumeration,
    _estimate_monte_carlo_reference,
    _normalise_probabilities,
    estimate_availability_monte_carlo,
    exact_availability,
    operation_availability,
    system_availability,
)
from repro.quorums.base import (
    _is_cross_intersecting_sets,
    is_cross_intersecting,
    SetSystem,
)
from repro.quorums.bitset import PackedQuorums, try_pack
from repro.quorums.load import (
    _membership_matrix,
    _membership_matrix_reference,
    optimal_load,
)
from repro.quorums.selection import SelectionIndex, select_uniform_reference
from repro.quorums.system import QuorumSystem

#: Small sizes keep the 2^n reference enumeration affordable in CI.
ZOO_SIZE = 9


@pytest.fixture(scope="module")
def zoo():
    systems = {}
    for name in PROTOCOL_NAMES:
        system = quorum_system(name, ZOO_SIZE)
        systems[name] = (
            system,
            tuple(system.read_quorums()),
            tuple(system.write_quorums()),
        )
    return systems


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
@pytest.mark.parametrize("p", [0.5, 0.85, 1.0])
def test_exact_availability_bit_identical(zoo, name, p):
    system, reads, writes = zoo[name]
    probabilities = _normalise_probabilities(system.universe, p)
    for quorums in (reads, writes):
        reference = _availability_by_universe_enumeration(
            quorums, probabilities
        )
        kernel = exact_availability(quorums, p, universe=system.universe)
        assert kernel == reference


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_heterogeneous_probabilities_bit_identical(zoo, name):
    system, reads, _ = zoo[name]
    p = {sid: 0.5 + 0.4 * (sid % 5) / 5 for sid in system.universe}
    probabilities = _normalise_probabilities(system.universe, p)
    reference = _availability_by_universe_enumeration(reads, probabilities)
    assert exact_availability(reads, p, universe=system.universe) == reference


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_inclusion_exclusion_bit_identical(zoo, name):
    system, _, writes = zoo[name]
    if len(writes) > 12:
        pytest.skip("2^m reference too large")
    probabilities = _normalise_probabilities(system.universe, 0.8)
    reference = _availability_by_inclusion_exclusion(writes, probabilities)
    packed = try_pack(writes, system.universe)
    from repro.quorums.bitset import availability_by_inclusion_exclusion

    assert availability_by_inclusion_exclusion(packed, probabilities) == reference


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_monte_carlo_bit_identical(zoo, name):
    system, reads, _ = zoo[name]
    probabilities = _normalise_probabilities(system.universe, 0.75)
    reference = _estimate_monte_carlo_reference(reads, probabilities, 20_000, 11)
    kernel = estimate_availability_monte_carlo(
        reads, 0.75, universe=system.universe, samples=20_000, seed=11
    )
    assert kernel == reference


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_bicoterie_check_agrees(zoo, name):
    _, reads, writes = zoo[name]
    assert is_cross_intersecting(reads, writes) is True
    assert _is_cross_intersecting_sets(reads, writes) is True
    # Break the property and check both paths notice.
    broken_reads = tuple(q for q in reads)[:1]
    lonely = frozenset({min(min(q) for q in reads)})
    disjoint_writes = tuple(
        q - lonely for q in writes if q - lonely
    )
    if disjoint_writes and not _is_cross_intersecting_sets(
        broken_reads, disjoint_writes
    ):
        assert not is_cross_intersecting(broken_reads, disjoint_writes)


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_membership_matrix_and_load_agree(zoo, name):
    system, reads, _ = zoo[name]
    set_system = SetSystem(reads, universe=system.universe)
    kernel_matrix, kernel_elements = _membership_matrix(set_system)
    ref_matrix, ref_elements = _membership_matrix_reference(set_system)
    assert kernel_elements == ref_elements
    assert (kernel_matrix == ref_matrix).all()
    assert kernel_matrix.dtype == ref_matrix.dtype
    lp = optimal_load(set_system)
    assert lp.verify()


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_selection_identical_rng_streams(zoo, name, seed):
    """The generic scan is a reservoir draw: one ``randrange`` per viable
    quorum in enumeration order, so it picks what this loop picks."""
    system, reads, writes = zoo[name]
    universe = sorted(system.universe)
    dead = set(universe[:: max(1, len(universe) // 3)])
    live = set(universe) - dead
    for quorums in (reads, writes):
        rng = random.Random(seed)
        expected, viable = None, 0
        for quorum in quorums:
            if quorum <= live:
                viable += 1
                if rng.randrange(viable) == 0:
                    expected = quorum
        assert QuorumSystem._select_by_scan(
            iter(quorums), live, random.Random(seed)
        ) == expected
    # Deterministic (rng=None) selection is the first viable quorum.
    assert QuorumSystem._select_by_scan(iter(reads), live, None) == next(
        (quorum for quorum in reads if quorum <= live), None
    )


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_selection_under_generic_scan_path_matches(zoo, name):
    """The generic scan picks the same quorum whether liveness is a
    predicate (callable) or a collection of live SIDs."""
    system, reads, _ = zoo[name]
    universe = sorted(system.universe)
    live = set(universe[1:])
    oracle = live.__contains__
    for seed in (0, 5):
        by_set = QuorumSystem._select_by_scan(
            iter(reads), live, random.Random(seed)
        )
        by_oracle = QuorumSystem._select_by_scan(
            iter(reads), oracle, random.Random(seed)
        )
        assert by_set == by_oracle


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_selection_index_agrees_under_random_live_sets(zoo, name, seed):
    """The memoised SelectionIndex equals the frozenset reference pick —
    same quorum under the same RNG stream — across the zoo, for random
    live sets spanning full liveness down to total failure."""
    system, reads, writes = zoo[name]
    index = SelectionIndex(
        system, max_quorums=max(len(reads), len(writes), 1)
    )
    universe = sorted(system.universe)
    live_rng = random.Random(seed)
    rng_index = random.Random(1000 + seed)
    rng_reference = random.Random(1000 + seed)
    for op, quorums in (("read", reads), ("write", writes)):
        assert index.supported(op)
        for _ in range(30):
            keep = live_rng.uniform(0.0, 1.0)
            live = tuple(
                sid for sid in universe if live_rng.random() < keep
            )
            kernel = index.select(op, live, rng_index)
            reference = select_uniform_reference(quorums, live, rng_reference)
            assert kernel == reference
            # And the deterministic (rng=None) pick agrees too.
            assert index.select(op, live) == select_uniform_reference(
                quorums, live
            )


def test_empty_live_set_selects_nothing(zoo):
    for name in PROTOCOL_NAMES:
        system, _, _ = zoo[name]
        assert system.select_read_quorum(set()) is None
        assert system.select_write_quorum(set(), random.Random(0)) is None


def test_n_equals_one_edge_case():
    system = quorum_system("rowa", 1)
    assert system.n == 1
    assert system.select_read_quorum({0}) is not None
    assert system.select_read_quorum(set()) is None
    assert exact_availability(
        tuple(system.read_quorums()), 0.9, universe=system.universe
    ) == pytest.approx(0.9)


class _WideSystem(QuorumSystem):
    """Synthetic n > 64 system exercising multi-word masks end to end."""

    name = "wide-stripes"

    def __init__(self, n: int = 70, stripes: int = 7) -> None:
        self._n = n
        self._stripes = stripes

    @property
    def universe(self):
        return frozenset(range(self._n))

    def read_quorums(self):
        width = self._n // self._stripes
        for s in range(self._stripes):
            yield frozenset(range(s * width, (s + 1) * width))

    def write_quorums(self):
        width = self._n // self._stripes
        for offset in range(width):
            yield frozenset(
                s * width + offset for s in range(self._stripes)
            )


def test_multi_word_system_agrees_end_to_end():
    system = _WideSystem(n=70, stripes=7)
    reads = tuple(system.read_quorums())
    writes = tuple(system.write_quorums())
    assert system.n == 70
    assert is_cross_intersecting(reads, writes)
    assert _is_cross_intersecting_sets(reads, writes)

    # Selection across the 64-bit word boundary.
    live = set(range(70)) - {3}
    assert system.select_read_quorum(live) == QuorumSystem._select_by_scan(
        iter(reads), live, None
    )
    for seed in range(3):
        assert system.select_write_quorum(
            live, random.Random(seed)
        ) == QuorumSystem._select_by_scan(iter(writes), live, random.Random(seed))

    # Monte-Carlo on three words, same stream as the reference.
    probabilities = _normalise_probabilities(system.universe, 0.9)
    reference = _estimate_monte_carlo_reference(
        writes, probabilities, 10_000, 3
    )
    kernel = estimate_availability_monte_carlo(
        writes, 0.9, universe=system.universe, samples=10_000, seed=3
    )
    assert kernel == reference

    # Inclusion-exclusion regime (n = 70 > 22, m = 7 <= 20).
    exact_ie = exact_availability(reads, 0.9, universe=system.universe)
    ref_ie = _availability_by_inclusion_exclusion(reads, probabilities)
    assert exact_ie == ref_ie


def test_packed_availability_is_the_enumerated_availability():
    """What ``repro availability`` computes: each collection packed once
    gives the enumerated availability at every p, and a system this small
    takes the exact path whatever ``samples`` and ``seed`` say."""
    system = quorum_system("grid", 9)
    for op in ("read", "write"):
        quorums = system.materialise(op)
        packed = PackedQuorums.from_quorums(quorums, universe=system.universe)
        assert packed.to_frozensets() == quorums
        for p in (0.5, 0.9):
            exact = system_availability(packed, p, universe=system.universe)
            assert exact == operation_availability(system, p, op)
            assert exact == system_availability(
                packed, p, universe=system.universe, samples=10, seed=42
            )


def test_numpy_random_stream_unchanged():
    """The kernel MC draws the exact RNG stream of the reference."""
    rng = np.random.default_rng(123)
    expected = rng.random((5, 3))
    rng2 = np.random.default_rng(123)
    assert (rng2.random((5, 3)) == expected).all()
