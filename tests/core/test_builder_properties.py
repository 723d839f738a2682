"""Property-based tests for tree constructors and the tuning advisor."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import metrics
from repro.core.builder import (
    from_spec,
    mostly_read,
    mostly_write,
    recommended_tree,
    sqrt_levels,
)
from repro.core.tuning import recommend


@given(st.integers(min_value=2, max_value=400))
@settings(max_examples=100, deadline=None)
def test_recommended_tree_invariants(n):
    tree = recommended_tree(n)
    assert tree.n == n
    assert tree.satisfies_assumption()
    assert tree.logical_levels in ((0,), ())
    if n > 64:
        assert tree.num_physical_levels == math.isqrt(n)
        assert tree.d == 4


@given(st.integers(min_value=1, max_value=300))
@settings(max_examples=100, deadline=None)
def test_sqrt_levels_invariants(n):
    tree = sqrt_levels(n)
    assert tree.n == n
    assert tree.satisfies_assumption()
    sizes = tree.physical_level_sizes
    assert max(sizes) - min(sizes) <= 1  # near-even split


@given(st.integers(min_value=2, max_value=300))
@settings(max_examples=100, deadline=None)
def test_mostly_write_invariants(n):
    tree = mostly_write(n)
    assert tree.n == n
    assert tree.num_physical_levels == n // 2
    if n >= 4:
        assert tree.d == 2
        assert metrics.read_load(tree) == 0.5
    else:
        # n = 2 or 3: a single level holding everything (degenerate case)
        assert tree.num_physical_levels == 1


@given(st.integers(min_value=1, max_value=300))
@settings(max_examples=60, deadline=None)
def test_mostly_read_is_rowa_shaped(n):
    tree = mostly_read(n)
    assert metrics.read_cost(tree) == 1
    assert metrics.write_cost_avg(tree) == n
    assert metrics.write_load(tree) == 1.0


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6)
)
@settings(max_examples=100, deadline=None)
def test_spec_round_trip(sizes):
    sizes = sorted(sizes)
    spec = "1-" + "-".join(str(s) for s in sizes)
    tree = from_spec(spec)
    assert from_spec(tree.spec()).spec() == tree.spec()
    assert tree.physical_level_sizes == tuple(sizes)


@given(
    n=st.integers(min_value=4, max_value=40),
    p=st.floats(min_value=0.6, max_value=0.99),
    f=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_tuning_result_valid_and_bounded(n, p, f):
    result = recommend(n, p=p, read_fraction=f)
    tree = result.tree
    assert tree.n == n
    assert tree.satisfies_assumption()
    assert 0.0 < result.best.score <= 1.0 + 1e-9
    # the advisor can never be worse than the pure extremes it includes
    for extreme in (mostly_read(n), mostly_write(n)):
        score = (
            f * metrics.expected_read_load(extreme, p)
            + (1 - f) * metrics.expected_write_load(extreme, p)
        )
        assert result.best.score <= score + 1e-9


@given(
    n=st.integers(min_value=6, max_value=30),
    p=st.floats(min_value=0.7, max_value=0.99),
)
@settings(max_examples=25, deadline=None)
def test_tuning_levels_monotone_in_read_fraction(n, p):
    levels = [
        recommend(n, p=p, read_fraction=f).tree.num_physical_levels
        for f in (0.0, 0.5, 1.0)
    ]
    assert levels[0] >= levels[1] >= levels[2]
