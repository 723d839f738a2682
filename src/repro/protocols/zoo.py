"""One registry of every protocol, as unified quorum systems.

The repo implements the paper's arbitrary protocol plus six comparison
protocols; each used to be reachable only through its own class and size
restrictions.  This module is the single place that knows how to build all
seven as :class:`~repro.quorums.system.QuorumSystem` instances at (or near)
a requested replica count, so the simulator, the analysis layer, the CLI
and the benchmarks can iterate over the whole zoo uniformly.

Most protocols only admit particular sizes (powers of three, complete
binary trees, perfect squares, ...); :func:`quorum_systems` snaps ``n`` to
the nearest admissible size per protocol, exactly as the related-work
survey does, and reports the actual size via each system's ``n``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from repro.core.builder import recommended_tree
from repro.protocols.agrawal_tree import AgrawalTreeProtocol
from repro.protocols.fpp import FiniteProjectivePlaneProtocol, fpp_sizes
from repro.protocols.grid import GridProtocol
from repro.protocols.hqc import HQCProtocol, hqc_sizes
from repro.protocols.majority import MajorityProtocol
from repro.protocols.rowa import RowaProtocol
from repro.protocols.tree_quorum import TreeQuorumProtocol, binary_tree_sizes
from repro.quorums.system import QuorumSystem

#: Canonical lowercase keys of the seven protocols in the zoo.
PROTOCOL_NAMES: tuple[str, ...] = (
    "arbitrary",
    "rowa",
    "majority",
    "grid",
    "hqc",
    "tree-quorum",
    "ae-tree",
)


def _arbitrary(n: int) -> QuorumSystem:
    # Imported on use: repro.core.protocol imports this package (its
    # ArbitraryProtocol is a ProtocolModel).
    from repro.core.protocol import ArbitraryProtocol

    return ArbitraryProtocol(recommended_tree(n))


def _nearest(sizes: Sequence[int], n: int) -> int:
    return min(sizes, key=lambda candidate: abs(candidate - n))


def _ae_tree_at(n: int) -> AgrawalTreeProtocol:
    # Complete (2d+1)-ary tree with d = 1 (ternary); snap the height.
    sizes = {(3 ** (h + 1) - 1) // 2: h for h in range(1, 10)}
    snapped = _nearest(list(sizes), n)
    return AgrawalTreeProtocol(d=1, height=sizes[snapped])


_BUILDERS: dict[str, Callable[[int], QuorumSystem]] = {
    "arbitrary": _arbitrary,
    "rowa": RowaProtocol,
    "majority": lambda n: MajorityProtocol(n if n % 2 == 1 else n + 1),
    "grid": lambda n: GridProtocol(max(2, math.isqrt(n)) ** 2),
    "hqc": lambda n: HQCProtocol(_nearest(hqc_sizes(7), n)),
    "tree-quorum": lambda n: TreeQuorumProtocol(_nearest(binary_tree_sizes(12), n)),
    "ae-tree": _ae_tree_at,
}


def quorum_system(protocol: str, n: int) -> QuorumSystem:
    """Build one protocol of the zoo at (the nearest admissible size to) ``n``.

    ``protocol`` is a key from :data:`PROTOCOL_NAMES` (case-insensitive).
    """
    key = protocol.lower()
    if key not in _BUILDERS:
        raise ValueError(
            f"unknown protocol {protocol!r}; choose from {PROTOCOL_NAMES}"
        )
    return _BUILDERS[key](n)


def quorum_systems(n: int) -> dict[str, QuorumSystem]:
    """All seven protocols at (approximately) ``n`` replicas, keyed by name."""
    return {name: quorum_system(name, n) for name in PROTOCOL_NAMES}


def fpp_system(n: int) -> QuorumSystem:
    """Maekawa's FPP system at the nearest admissible size (survey extra).

    Kept out of :func:`quorum_systems` because the plane sizes
    ``q^2 + q + 1`` are sparse, but exposed for the related-work survey.
    """
    return FiniteProjectivePlaneProtocol(_nearest(fpp_sizes(23), n))
