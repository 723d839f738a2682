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

from repro.quorums.availability import (
    estimate_availability_monte_carlo,
    exact_availability,
    operation_availability,
    system_availability,
)
from repro.quorums.base import (
    BiCoterie,
    Coterie,
    SetSystem,
    is_antichain,
    is_intersecting,
)
from repro.quorums.liveness import LivenessOracle, as_oracle
from repro.quorums.load import (
    OptimalLoad,
    optimal_load,
    optimal_operation_load,
    verify_load_witness,
)
from repro.quorums.strategy import Strategy, induced_loads, system_load
from repro.quorums.system import QuorumSystem

__all__ = [
    "BiCoterie",
    "Coterie",
    "LivenessOracle",
    "OptimalLoad",
    "QuorumSystem",
    "SetSystem",
    "Strategy",
    "as_oracle",
    "estimate_availability_monte_carlo",
    "exact_availability",
    "induced_loads",
    "is_antichain",
    "is_intersecting",
    "operation_availability",
    "optimal_load",
    "optimal_operation_load",
    "system_availability",
    "system_load",
    "verify_load_witness",
]
