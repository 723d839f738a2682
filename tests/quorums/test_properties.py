"""Property-based tests (hypothesis) on the quorum-theory substrate."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quorums.availability import (
    estimate_availability_monte_carlo,
    exact_availability,
)
from repro.quorums.base import (
    SetSystem,
    is_cross_intersecting,
)
from repro.quorums.load import optimal_load
from repro.quorums.strategy import Strategy

# Small universes keep the exact computations and LPs fast.
elements = st.integers(min_value=0, max_value=7)
quorum = st.frozensets(elements, min_size=1, max_size=8)
quorum_list = st.lists(quorum, min_size=1, max_size=8)


@given(quorum_list)
def test_uniform_strategy_load_bounds(quorums):
    """1/m <= induced load <= 1 for the uniform strategy over any system."""
    system = SetSystem(quorums)
    strategy = Strategy.uniform(system)
    load = strategy.induced_load()
    assert 0.0 < load <= 1.0 + 1e-9
    # some element appears in at least ceil(m / n) quorums... weaker check:
    assert load >= 1.0 / len(system) - 1e-9


@given(quorum_list)
@settings(max_examples=40, deadline=None)
def test_lp_load_bounded_by_uniform_strategy(quorums):
    """The optimal load never exceeds any concrete strategy's load."""
    system = SetSystem(quorums)
    lp = optimal_load(system)
    uniform = Strategy.uniform(system).induced_load()
    assert lp.load <= uniform + 1e-6
    assert lp.load >= 1.0 / len(system.universe) - 1e-6


@given(quorum_list)
@settings(max_examples=40, deadline=None)
def test_lp_witness_always_verifies(quorums):
    assert optimal_load(SetSystem(quorums)).verify()


@given(quorum_list, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_exact_availability_in_unit_interval(quorums, p):
    value = exact_availability(quorums, p)
    assert -1e-12 <= value <= 1.0 + 1e-12


@given(quorum_list, st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=20, deadline=None)
def test_monte_carlo_tracks_exact(quorums, p):
    exact = exact_availability(quorums, p)
    estimate = estimate_availability_monte_carlo(
        quorums, p, samples=30_000, seed=0
    )
    assert math.isclose(estimate, exact, abs_tol=0.03)


@given(quorum_list, st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_exact_availability_monotone_in_p(quorums, p_low, p_high):
    low, high = sorted((p_low, p_high))
    assert exact_availability(quorums, low) <= (
        exact_availability(quorums, high) + 1e-9
    )


@given(
    st.lists(quorum, min_size=1, max_size=5),
    st.lists(quorum, min_size=1, max_size=5),
)
def test_cross_intersection_symmetric(reads, writes):
    assert is_cross_intersecting(reads, writes) == is_cross_intersecting(
        writes, reads
    )
