"""Unit tests for the unified QuorumSystem layer."""

import random
from collections.abc import Iterator

import pytest

from repro.quorums.system import QuorumSystem


class ExplicitSystem(QuorumSystem):
    """A minimal concrete system: quorums given as explicit lists.

    Read quorums are the rows, write quorums the columns, of a 2x2 grid —
    a genuine bi-coterie with known LP loads (0.5 for either op).
    """

    name = "explicit-2x2"

    def __init__(self):
        self.read_enumerations = 0
        self.write_enumerations = 0

    @property
    def universe(self) -> frozenset[int]:
        return frozenset(range(4))

    def read_quorums(self) -> Iterator[frozenset[int]]:
        self.read_enumerations += 1
        yield frozenset({0, 1})
        yield frozenset({2, 3})

    def write_quorums(self) -> Iterator[frozenset[int]]:
        self.write_enumerations += 1
        yield frozenset({0, 2})
        yield frozenset({1, 3})


class TestGenericDefaults:
    def test_n_from_universe(self):
        assert ExplicitSystem().n == 4

    def test_quorums_by_op_name(self):
        system = ExplicitSystem()
        assert list(system.quorums("read")) == [frozenset({0, 1}), frozenset({2, 3})]
        assert list(system.quorums("write")) == [frozenset({0, 2}), frozenset({1, 3})]
        with pytest.raises(ValueError, match="op"):
            list(system.quorums("delete"))

    def test_materialise_guard(self):
        with pytest.raises(ValueError, match="more than 1"):
            ExplicitSystem().materialise("read", max_quorums=1)

    def test_select_scans_for_fully_live_quorum(self):
        system = ExplicitSystem()
        live = {2, 3}
        assert system.select_read_quorum(live) == frozenset({2, 3})
        assert system.select_write_quorum(live) is None
        assert system.select_read_quorum(set()) is None

    def test_select_with_rng_returns_only_live_members(self):
        system = ExplicitSystem()
        rng = random.Random(0)
        for _ in range(20):
            quorum = system.select_read_quorum({0, 1, 2, 3}, rng)
            assert quorum in (frozenset({0, 1}), frozenset({2, 3}))

    def test_select_rng_randomises_choice(self):
        system = ExplicitSystem()
        rng = random.Random(1)
        seen = {system.select_read_quorum({0, 1, 2, 3}, rng) for _ in range(40)}
        assert seen == {frozenset({0, 1}), frozenset({2, 3})}

    def test_sampling_never_returns_none(self):
        system = ExplicitSystem()
        rng = random.Random(2)
        assert system.sample_read_quorum(rng) is not None
        assert system.sample_write_quorum(rng) is not None

    def test_derived_load_matches_known_optimum(self):
        system = ExplicitSystem()
        assert system.load("read") == pytest.approx(0.5)
        assert system.load("write") == pytest.approx(0.5)

    def test_derived_strategy_and_load_vector(self):
        system = ExplicitSystem()
        vector = system.load_vector("read")
        assert set(vector) <= set(range(4))
        assert max(vector.values()) == pytest.approx(0.5)

    def test_derived_availability_endpoints(self):
        system = ExplicitSystem()
        assert system.availability(1.0, "read") == pytest.approx(1.0)
        assert system.availability(0.0, "write") == pytest.approx(0.0)

    def test_bicoterie_checks(self):
        system = ExplicitSystem()
        assert system.is_bicoterie()
        bicoterie = system.bicoterie()
        assert len(list(bicoterie.read_quorums)) == 2


def test_dual_quorums_meet_both_epochs():
    """Every dual read quorum meets every write quorum of the old tree,
    the new tree and the dual system, and every dual write quorum every
    read quorum of the three: why reads stay one-copy mid-transition."""
    from repro.core import from_spec
    from repro.core.protocol import ArbitraryProtocol
    from repro.quorums.base import is_cross_intersecting
    from repro.quorums.dual import DualQuorumSystem

    old, new = (ArbitraryProtocol(from_spec(s)) for s in ("1-3-5", "1-4-4"))
    dual = DualQuorumSystem(old, new)
    reads, writes = dual.materialise("read"), dual.materialise("write")
    assert len(reads) == 15 * 16 and len(writes) == 2 * 2
    for system in (old, new, dual):
        assert is_cross_intersecting(reads, system.materialise("write"))
        assert is_cross_intersecting(system.materialise("read"), writes)
    assert dual.bicoterie().universe == old.universe
