"""The six named configurations of Section 4.

1. **BINARY** — the original Agrawal-El Abbadi tree-quorum protocol on a
   complete binary tree (cost/availability from [2], load from [10]);
2. **UNMODIFIED** — the paper's read/write operations applied directly to
   that same all-physical binary tree;
3. **ARBITRARY** — the paper's protocol on an Algorithm-1 tree (logical
   root, sqrt(n) physical levels, 4-replica head levels);
4. **HQC** — Kumar's hierarchical quorum consensus (ternary hierarchy);
5. **MOSTLY-READ** — all replicas on one physical level (behaves as ROWA);
6. **MOSTLY-WRITE** — two replicas per physical level.

Configurations 2, 3, 5 and 6 are instances of the arbitrary protocol and
are modelled by :class:`~repro.core.protocol.ArbitraryProtocol` through
:mod:`repro.core.metrics`; 1 and 4 are the baseline protocols.
:func:`make_model` returns a uniform
:class:`~repro.protocols.base.ProtocolModel` for any of the six, and
:func:`make_tree` returns the underlying tree for the tree-shaped ones.

Each configuration has its own admissible system sizes (complete binary
trees need ``n = 2^(h+1)-1``, HQC needs ``n = 3^l``, Algorithm 1 wants
``n > 64``, MOSTLY-WRITE wants ``n >= 2``); :func:`admissible_size` snaps a
requested ``n`` to the nearest size the configuration supports, which is how
the figure sweeps place all six protocols on a common axis.
"""

from __future__ import annotations

import enum
import math

from repro.core import builder
from repro.core.protocol import ArbitraryProtocol
from repro.core.tree import ArbitraryTree
from repro.protocols.base import ProtocolModel
from repro.protocols.hqc import HQCProtocol
from repro.protocols.tree_quorum import TreeQuorumProtocol


class Configuration(enum.Enum):
    """The six configurations compared in Section 4 of the paper."""

    BINARY = "BINARY"
    UNMODIFIED = "UNMODIFIED"
    ARBITRARY = "ARBITRARY"
    HQC = "HQC"
    MOSTLY_READ = "MOSTLY-READ"
    MOSTLY_WRITE = "MOSTLY-WRITE"

    def __str__(self) -> str:
        return self.value


def _nearest_binary_size(n: int) -> int:
    """Closest ``2^(h+1) - 1`` to ``n`` (h >= 0)."""
    height = max(0, round(math.log2(n + 1)) - 1)
    candidates = [2 ** (h + 1) - 1 for h in (height, height + 1)]
    return min(candidates, key=lambda candidate: abs(candidate - n))


def _nearest_hqc_size(n: int) -> int:
    """Closest power of three to ``n``."""
    depth = max(0, round(math.log(max(n, 1), 3)))
    candidates = [3**d for d in (depth, depth + 1)]
    return min(candidates, key=lambda candidate: abs(candidate - n))


def admissible_size(config: Configuration, n: int) -> int:
    """Snap ``n`` to the nearest size the configuration supports."""
    if n < 1:
        raise ValueError("n must be positive")
    if config in (Configuration.BINARY, Configuration.UNMODIFIED):
        return _nearest_binary_size(n)
    if config is Configuration.HQC:
        return _nearest_hqc_size(n)
    if config is Configuration.MOSTLY_WRITE:
        return max(2, n)
    return n


def make_tree(config: Configuration, n: int) -> ArbitraryTree:
    """Build the tree behind a tree-shaped configuration.

    Supports UNMODIFIED, ARBITRARY, MOSTLY-READ and MOSTLY-WRITE; BINARY and
    HQC are quorum-recursion protocols without an arbitrary-protocol tree,
    so they raise :class:`ValueError`.
    """
    n = admissible_size(config, n)
    if config is Configuration.UNMODIFIED:
        return builder.unmodified_binary(n)
    if config is Configuration.ARBITRARY:
        return builder.recommended_tree(n)
    if config is Configuration.MOSTLY_READ:
        return builder.mostly_read(n)
    if config is Configuration.MOSTLY_WRITE:
        return builder.mostly_write(n)
    raise ValueError(f"{config} is not backed by an arbitrary-protocol tree")


def make_model(config: Configuration, n: int) -> ProtocolModel:
    """Build the analytic model of any of the six configurations.

    ``n`` is snapped to the nearest admissible size first (see
    :func:`admissible_size`); check ``model.n`` for the size actually used.
    """
    n = admissible_size(config, n)
    if config is Configuration.BINARY:
        return TreeQuorumProtocol(n)
    if config is Configuration.HQC:
        return HQCProtocol(n)
    return ArbitraryProtocol(make_tree(config, n), name=str(config))


ALL_CONFIGURATIONS: tuple[Configuration, ...] = tuple(Configuration)
