"""Ablation: why Algorithm 1 pins the first seven levels at FOUR replicas.

Algorithm 1 hard-codes 4-replica head levels.  The head levels control the
asymptotic availabilities (Section 3.3):

    lim RD_avail = (1 - (1-p)^s)^L,   lim WR_avail = 1 - (1 - p^s)^L

for head size ``s`` and head length ``L``, while the read load is ``1/s``.
This bench sweeps ``s`` (and ``L``) and asserts the genuine tension that
makes (s=4, L=7) a sweet spot:

* growing s improves read availability and read load (1/s) but *hurts*
  write availability — a level is a write quorum only when all ``s``
  members are live, and ``p^s`` shrinks with ``s``;
* s = 2 gives read load 0.5 and poor read availability; s = 8 drops write
  availability below 0.75 at p = 0.8;
* the per-replica read-load gain has diminishing returns past s = 4;
* at s = 4 both availabilities clear 0.97 for p >= 0.85 — the paper's
  "stable once p > 0.8" regime.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import format_table
from repro.core.builder import _spread, from_physical_level_sizes
from repro.core.metrics import (
    analyse,
    read_availability,
    write_availability,
)

N = 400
HEAD_SIZES = (2, 3, 4, 5, 6, 8)
HEAD_LENGTHS = (3, 5, 7, 10)
P_VALUES = (0.7, 0.8, 0.85, 0.9)


def _head_tree(n: int, head_size: int, head_length: int = 7):
    """An Algorithm-1-style tree with a configurable head."""
    levels = max(head_length + 1, int(n**0.5))
    head = [head_size] * head_length
    tail_total = n - head_size * head_length
    tail = _spread(tail_total, levels - head_length, minimum=head_size)
    return from_physical_level_sizes(head + tail)


@pytest.fixture(scope="module")
def head_sweep():
    return {
        (s, p): analyse(_head_tree(N, s), p=p)
        for s in HEAD_SIZES
        for p in P_VALUES
    }


def test_head_size_table(head_sweep, emit, benchmark):
    benchmark(_head_tree, N, 4)
    rows = []
    for s in HEAD_SIZES:
        m = head_sweep[(s, 0.85)]
        rows.append([
            s, round(m.read_load, 4), m.write_cost_min,
            round(m.read_availability, 4), round(m.write_availability, 4),
        ])
    emit(
        "ablation_head_size",
        format_table(
            ["head size s", "read load 1/s", "min write cost",
             "RD avail", "WR avail"],
            rows,
            title=f"Head-size ablation at n={N}, p=0.85 (paper uses s=4)",
        ),
    )


def test_availability_tension_in_head_size(head_sweep, benchmark):
    """Reads get better with s, writes get worse: the core tension."""
    benchmark(lambda: None)
    for p in P_VALUES:
        for a, b in zip(HEAD_SIZES, HEAD_SIZES[1:]):
            assert (
                head_sweep[(b, p)].read_availability
                >= head_sweep[(a, p)].read_availability - 1e-12
            )
            assert (
                head_sweep[(b, p)].write_availability
                <= head_sweep[(a, p)].write_availability + 1e-12
            )


def test_read_load_gain_flattens(head_sweep, benchmark):
    benchmark(lambda: None)
    loads = [head_sweep[(s, 0.85)].read_load for s in HEAD_SIZES]
    gains = [
        (loads[i] - loads[i + 1]) / (HEAD_SIZES[i + 1] - HEAD_SIZES[i])
        for i in range(len(loads) - 1)
    ]
    assert gains == sorted(gains, reverse=True)  # diminishing returns per s


def test_s4_is_stable_at_p_085(head_sweep, benchmark):
    benchmark(lambda: None)
    m = head_sweep[(4, 0.85)]
    assert m.read_availability > 0.97
    assert m.write_availability > 0.97
    assert m.read_load == pytest.approx(0.25)
    # neither neighbour is better on every axis: s=3 loses on read load
    # AND read availability; s=5 loses on write availability
    three = head_sweep[(3, 0.85)]
    five = head_sweep[(5, 0.85)]
    assert three.read_load > m.read_load
    assert three.read_availability < m.read_availability
    assert five.write_availability < m.write_availability


def test_s2_is_markedly_worse(head_sweep, benchmark):
    benchmark(lambda: None)
    two = head_sweep[(2, 0.8)]
    four = head_sweep[(4, 0.8)]
    assert two.read_load == pytest.approx(0.5)
    assert two.read_availability < four.read_availability - 0.1


def test_head_length_trade_off(emit, benchmark):
    """Longer heads hurt read availability ((.)^L) but help write
    availability (more fallback levels)."""
    benchmark(lambda: None)
    rows = []
    p = 0.8
    for length in HEAD_LENGTHS:
        tree = _head_tree(N, 4, head_length=length)
        rows.append([
            length,
            round(read_availability(tree, p), 4),
            round(write_availability(tree, p), 4),
        ])
    emit(
        "ablation_head_length",
        format_table(
            ["head length L", "RD avail", "WR avail"],
            rows,
            title=f"Head-length ablation (s=4, n={N}, p={p})",
        ),
    )
    read_values = [row[1] for row in rows]
    write_values = [row[2] for row in rows]
    assert read_values == sorted(read_values, reverse=True)
    assert write_values == sorted(write_values)
