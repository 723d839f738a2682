"""Fold shard results back into whole-run values.

Every helper folds **in task order** — the runner returns shard results in
the order tasks were defined, and the underlying ``merge()`` methods are
order-sensitive only through list concatenation, so the fold reproduces the
serial result exactly.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.analysis.sweeps import FigureSeries
from repro.sim.monitor import Monitor


def merge_monitors(monitors: Sequence[Monitor]) -> Monitor:
    """Fold repeat monitors into the first one (in place; returns it)."""
    if not monitors:
        raise ValueError("need at least one monitor to merge")
    merged = monitors[0]
    for monitor in monitors[1:]:
        merged.merge(monitor)
    return merged


def merge_series(shards: Sequence[FigureSeries]) -> FigureSeries:
    """Fold sweep shards into one :class:`FigureSeries` (a new instance)."""
    if not shards:
        raise ValueError("need at least one sweep shard to merge")
    merged = shards[0]
    for shard in shards[1:]:
        merged = merged.merge(shard)
    return merged


def merge_availability(
    fractions: Sequence[float], weights: Sequence[int]
) -> float:
    """Sample-weighted mean of per-chunk Monte-Carlo hit fractions.

    Reduces with ``math.fsum`` — the same compensated summation the
    availability kernel uses — so the merged estimate matches a single-pass
    estimate over the concatenated samples to the last bit.
    """
    if len(fractions) != len(weights):
        raise ValueError("fractions and weights must align")
    if not fractions:
        raise ValueError("need at least one chunk to merge")
    total = sum(weights)
    if total <= 0:
        raise ValueError("total sample count must be positive")
    return math.fsum(
        fraction * weight for fraction, weight in zip(fractions, weights)
    ) / total
