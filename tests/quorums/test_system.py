"""Unit tests for the unified QuorumSystem layer and its caching wrapper."""

import random
from collections.abc import Iterator

import pytest

from repro.quorums.system import CachedQuorumSystem, QuorumSystem


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


class TestCachedQuorumSystem:
    def test_load_enumerates_once_per_op(self):
        inner = ExplicitSystem()
        cached = CachedQuorumSystem(inner)
        for _ in range(5):
            cached.load("read")
            cached.load("write")
            cached.strategy("read")
            cached.load_vector("write")
        assert inner.read_enumerations == 1
        assert inner.write_enumerations == 1
        assert cached.enumerations == 2

    def test_availability_reuses_the_enumeration(self):
        inner = ExplicitSystem()
        cached = CachedQuorumSystem(inner)
        for p in (0.5, 0.9, 0.5, 0.9):
            cached.availability(p, "read")
            cached.availability(p, "write")
        assert inner.read_enumerations == 1
        assert inner.write_enumerations == 1

    def test_cached_values_match_uncached(self):
        inner = ExplicitSystem()
        cached = CachedQuorumSystem(ExplicitSystem())
        assert cached.load("read") == pytest.approx(inner.load("read"))
        assert cached.availability(0.8, "write") == pytest.approx(
            inner.availability(0.8, "write")
        )

    def test_iteration_hits_the_cache(self):
        inner = ExplicitSystem()
        cached = CachedQuorumSystem(inner)
        assert list(cached.read_quorums()) == list(cached.read_quorums())
        assert inner.read_enumerations == 1

    def test_selection_is_delegated_live(self):
        cached = CachedQuorumSystem(ExplicitSystem())
        assert cached.select_read_quorum({2, 3}) == frozenset({2, 3})
        assert cached.select_write_quorum({2, 3}) is None

    def test_name_universe_and_extras_forwarded(self):
        inner = ExplicitSystem()
        cached = CachedQuorumSystem(inner)
        assert cached.name == "explicit-2x2"
        assert cached.universe == inner.universe
        assert cached.system is inner
        # an attribute only the wrapped class defines
        assert cached.read_enumerations == inner.read_enumerations

    def test_wraps_real_protocols(self):
        from repro.protocols.tree_quorum import TreeQuorumProtocol

        cached = CachedQuorumSystem(TreeQuorumProtocol(7))
        first = cached.materialise("read")
        again = cached.materialise("read")
        assert first is again
        assert cached.enumerations == 1
        # closed-form extras pass through __getattr__
        assert cached.average_cost() == TreeQuorumProtocol(7).average_cost()

    def test_selection_contract_sampling_and_masks_are_the_wrapped(self):
        from repro.core import from_spec
        from repro.core.protocol import ArbitraryProtocol
        from repro.protocols.zoo import quorum_system

        tree = ArbitraryProtocol(from_spec("1-3-5"))
        cached = CachedQuorumSystem(tree)
        assert cached.uniform_selection is tree.uniform_selection
        assert list(cached.write_quorums()) == list(tree.write_quorums())
        for sample in ("sample_read_quorum", "sample_write_quorum"):
            assert getattr(cached, sample)(random.Random(3)) == getattr(
                tree, sample
            )(random.Random(3))
        grid = quorum_system("grid", 9)
        assert CachedQuorumSystem(grid).quorum_masks("write") == (
            grid.quorum_masks("write")
        )


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
