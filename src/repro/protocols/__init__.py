"""Baseline replica control protocols the paper compares against.

Each protocol is exposed as a :class:`~repro.protocols.base.ProtocolModel`
with analytic communication cost, availability and optimal system load, plus
explicit quorum enumeration for sizes small enough to cross-check against
the LP machinery of :mod:`repro.quorums`.

* :mod:`repro.protocols.rowa` — Read-One/Write-All [3];
* :mod:`repro.protocols.majority` — majority voting [13];
* :mod:`repro.protocols.tree_quorum` — Agrawal-El Abbadi binary tree quorums
  [2], the paper's **BINARY** configuration;
* :mod:`repro.protocols.hqc` — Kumar's Hierarchical Quorum Consensus [8],
  the paper's **HQC** configuration;
* :mod:`repro.protocols.grid` — the grid protocol [4];
* :mod:`repro.protocols.fpp` — Maekawa's sqrt(n) / finite-projective-plane
  protocol [9];
* :mod:`repro.protocols.agrawal_tree` — the original Agrawal-El Abbadi tree
  protocol for replicated data [1].

Every protocol implements the unified
:class:`~repro.quorums.system.QuorumSystem` interface, and
:mod:`repro.protocols.zoo` builds all of them (plus the paper's arbitrary
protocol) at a requested replica count.
"""

from importlib import import_module

# name -> submodule that defines it, resolved on first access (PEP 562)
# and cached in the module namespace, so importing one protocol (the
# coordinator imports ``agrawal_tree`` through ``repro.core``) does not
# import the whole zoo.
_EXPORTS = {
    "AgrawalTreeProtocol": "agrawal_tree",
    "FiniteProjectivePlaneProtocol": "fpp",
    "GridProtocol": "grid",
    "HQCProtocol": "hqc",
    "MajorityProtocol": "majority",
    "PROTOCOL_NAMES": "zoo",
    "ProtocolModel": "base",
    "RowaProtocol": "rowa",
    "TreeQuorumProtocol": "tree_quorum",
    "quorum_system": "zoo",
    "quorum_systems": "zoo",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
