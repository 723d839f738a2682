"""Quorum-system theory substrate.

This subpackage implements the classical machinery from Naor & Wool,
"The load, capacity, and availability of quorum systems" (SIAM J. Comput.,
1998), that the paper builds on:

* set systems, quorum systems, coteries and bi-coteries
  (Definitions 2.1-2.3 of the paper);
* strategies and the load they induce (Definitions 2.4-2.5);
* the optimal system load as a linear program, together with the dual
  witness characterisation (Proposition 2.1);
* availability of a quorum system under independent fail-stop replicas.

Everything here is protocol-agnostic: the arbitrary tree protocol, the
tree-quorum protocol, HQC, grids and so on are all expressed as (bi-)coteries
over a finite universe of replica identifiers and analysed with these tools.

On top of the classical machinery sits the unified read/write layer of
:mod:`repro.quorums.system`: the abstract :class:`QuorumSystem` every
protocol implements and every consumer (simulator, analysis, CLI,
benchmarks) programs against.  (The *intersecting set system* of
Definition 2.1 keeps its historical name at
:class:`repro.quorums.base.QuorumSystem`; the package-level export is the
read/write interface.)
"""

from importlib import import_module

# name -> submodule that defines it, resolved on first access (PEP 562)
# and cached in the module namespace.  Eager imports here loaded numpy
# (``availability``, ``load``) into every process that selects a quorum —
# the coordinator and the simulator — through ``repro.protocols.base``.
_EXPORTS = {
    "BiCoterie": "base",
    "Coterie": "base",
    "LivenessOracle": "liveness",
    "OptimalLoad": "load",
    "QuorumSystem": "system",
    "SetSystem": "base",
    "Strategy": "strategy",
    "as_oracle": "liveness",
    "estimate_availability_monte_carlo": "availability",
    "exact_availability": "availability",
    "is_antichain": "base",
    "is_intersecting": "base",
    "operation_availability": "availability",
    "optimal_load": "load",
    "optimal_operation_load": "load",
    "system_availability": "availability",
    "system_load": "strategy",
    "verify_load_witness": "load",
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
