"""Optimal system load via linear programming (Naor-Wool).

The *system load* ``L(S)`` of Definition 2.5 is the minimum over all
strategies of the maximum per-element induced load.  It is the value of the
linear program

    minimise    L
    subject to  sum_{j : i in S_j} w_j <= L      for every element i,
                sum_j w_j = 1,
                w_j >= 0,

whose dual (after normalisation) is exactly Proposition 2.1: ``L`` is optimal
iff there exists a probability vector ``y`` over the universe with
``y(S) >= L`` for every quorum ``S``.  We solve both the primal (optimal
strategy) and the dual (the witness ``y``) with :func:`scipy.optimize.linprog`.

This module is the ground truth against which the paper's closed-form loads
(``1/d`` for reads, ``1/|K_phy|`` for writes, Appendix 6) are verified in the
test suite and in ``benchmarks/bench_load_optimality.py``.
"""

from __future__ import annotations

from collections.abc import Collection, Hashable, Iterable
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from repro.quorums.base import SetSystem
from repro.quorums.bitset import try_pack
from repro.quorums.strategy import Strategy

Element = TypeVar("Element", bound=Hashable)

_LP_TOLERANCE = 1e-7


@dataclass(frozen=True)
class OptimalLoad:
    """Result of the optimal-load linear program.

    Attributes
    ----------
    load:
        The optimal system load ``L(S)``.
    strategy:
        An optimal strategy achieving that load.
    witness:
        A dual witness ``y`` (probability vector over the universe, keyed by
        element) certifying optimality per Proposition 2.1.
    """

    load: float
    strategy: Strategy
    witness: dict

    def verify(self, tolerance: float = 1e-6) -> bool:
        """Check primal feasibility, dual feasibility and matching values."""
        primal_ok = self.strategy.induced_load() <= self.load + tolerance
        dual_ok = verify_load_witness(
            self.strategy.system, self.witness, self.load, tolerance=tolerance
        )
        return primal_ok and dual_ok


def _membership_matrix_reference(system: SetSystem) -> tuple[np.ndarray, list]:
    """Cell-by-cell membership matrix build (kernel reference path)."""
    elements = sorted(system.universe)
    index = {element: row for row, element in enumerate(elements)}
    matrix = np.zeros((len(elements), len(system)), dtype=float)
    for col, quorum in enumerate(system.quorums):
        for element in quorum:
            matrix[index[element], col] = 1.0
    return matrix, elements


def _membership_matrix(
    system: SetSystem, packed=None
) -> tuple[np.ndarray, list]:
    """Binary element x quorum membership matrix plus the element order.

    Integer universes are packed into the bitset kernel and the matrix is
    extracted with one vectorised bit-unpack instead of a Python loop per
    (quorum, element) cell.  Callers holding a pre-packed collection pass
    it via ``packed`` to skip re-packing.
    """
    if packed is None:
        packed = try_pack(system.quorums, system.universe)
    if packed is not None:
        return packed.membership_matrix(dtype=float), list(packed.elements)
    return _membership_matrix_reference(system)


def optimal_load(
    quorums: Iterable[Collection[Element]] | SetSystem,
    universe: Collection[Element] | None = None,
    packed=None,
) -> OptimalLoad:
    """Compute the optimal system load of an explicitly enumerated system.

    Parameters
    ----------
    quorums:
        Either a :class:`SetSystem` or an iterable of quorums.
    universe:
        Ground set (only used when ``quorums`` is an iterable).  Elements of
        the universe that belong to no quorum trivially carry zero load.
    packed:
        Optional pre-built :class:`~repro.quorums.bitset.PackedQuorums` of
        the same collection (must be packed over the same universe, in the
        same quorum order); skips re-packing for the membership matrix.

    Returns
    -------
    OptimalLoad
        Optimal load, an optimal strategy, and a dual witness.

    Notes
    -----
    Complexity is polynomial in the *number of quorums*, which for the
    arbitrary protocol is ``prod_k m_phy_k`` for reads — exponential in the
    number of levels.  Use this for the small/medium systems in tests and
    benches; the closed forms in :mod:`repro.core.metrics` cover all sizes.
    """
    # Imported here, not at module top: scipy.optimize costs 0.4 s and
    # ~50 MiB, and every ``repro serve`` process imports this module.
    from scipy.optimize import linprog

    if isinstance(quorums, SetSystem):
        system = quorums
    else:
        system = SetSystem(quorums, universe=universe)

    membership, elements = _membership_matrix(system, packed=packed)
    n_elements, n_quorums = membership.shape

    # Primal: variables (w_1..w_m, L); minimise L.
    cost = np.zeros(n_quorums + 1)
    cost[-1] = 1.0
    # membership @ w - L <= 0 for every element.
    a_ub = np.hstack([membership, -np.ones((n_elements, 1))])
    b_ub = np.zeros(n_elements)
    a_eq = np.zeros((1, n_quorums + 1))
    a_eq[0, :n_quorums] = 1.0
    b_eq = np.array([1.0])
    bounds = [(0.0, None)] * n_quorums + [(0.0, None)]
    primal = linprog(
        cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
        method="highs",
    )
    if not primal.success:  # pragma: no cover - HiGHS is reliable on these LPs
        raise RuntimeError(f"optimal-load primal LP failed: {primal.message}")

    weights_raw = np.clip(primal.x[:n_quorums], 0.0, None)
    weights = weights_raw / weights_raw.sum()
    load = float(primal.x[-1])
    strategy = Strategy(system, tuple(float(w) for w in weights))

    # Dual witness (Proposition 2.1): maximise t subject to
    # y(S) >= t for every quorum S, sum(y) = 1, y >= 0.
    # Variables (y_1..y_n, t); minimise -t.
    dual_cost = np.zeros(n_elements + 1)
    dual_cost[-1] = -1.0
    # t - y(S) <= 0 for every quorum.
    dual_a_ub = np.hstack([-membership.T, np.ones((n_quorums, 1))])
    dual_b_ub = np.zeros(n_quorums)
    dual_a_eq = np.zeros((1, n_elements + 1))
    dual_a_eq[0, :n_elements] = 1.0
    dual = linprog(
        dual_cost, A_ub=dual_a_ub, b_ub=dual_b_ub, A_eq=dual_a_eq,
        b_eq=np.array([1.0]), bounds=[(0.0, None)] * (n_elements + 1),
        method="highs",
    )
    if not dual.success:  # pragma: no cover
        raise RuntimeError(f"optimal-load dual LP failed: {dual.message}")
    witness = {
        element: float(value)
        for element, value in zip(elements, dual.x[:n_elements])
    }

    dual_value = float(dual.x[-1])
    if abs(dual_value - load) > 1e-5:  # pragma: no cover - duality gap
        raise RuntimeError(
            f"LP duality gap: primal load {load} vs dual value {dual_value}"
        )
    return OptimalLoad(load=load, strategy=strategy, witness=witness)


def optimal_operation_load(
    system,
    op: str = "read",
    max_quorums: int = 200_000,
) -> OptimalLoad:
    """Optimal load of one operation of a quorum system.

    ``system`` is anything implementing the
    :class:`~repro.quorums.system.QuorumSystem` interface (``universe`` plus
    ``read_quorums()``/``write_quorums()``); ``op`` selects which quorum
    collection to analyse.  Enumeration is guarded by ``max_quorums`` because
    quorum counts grow exponentially for most protocols, and goes through
    ``system.materialise`` when available.
    """
    if op not in ("read", "write"):
        raise ValueError(f"op must be 'read' or 'write', got {op!r}")
    if hasattr(system, "materialise"):
        quorums = system.materialise(op, max_quorums)
    else:  # pragma: no cover - duck-typed minimal systems
        quorums = []
        source = system.read_quorums() if op == "read" else system.write_quorums()
        for quorum in source:
            quorums.append(quorum)
            if len(quorums) > max_quorums:
                raise ValueError(
                    f"more than {max_quorums} {op} quorums; "
                    "raise max_quorums or use a closed form"
                )
    return optimal_load(quorums, universe=system.universe)


def verify_load_witness(
    system: SetSystem,
    witness: dict,
    load: float,
    tolerance: float = 1e-6,
) -> bool:
    """Check a Proposition 2.1 witness: y >= 0, y(U) = 1, y(S) >= L for all S.

    A valid witness proves ``L`` is a *lower bound* on the system load; paired
    with a strategy achieving ``L`` it proves optimality.  The appendix of the
    paper constructs such witnesses by hand (all mass on the thinnest physical
    level for reads; one replica per physical level for writes).
    """
    if any(value < -tolerance for value in witness.values()):
        return False
    total = float(sum(witness.get(element, 0.0) for element in system.universe))
    if abs(total - 1.0) > tolerance:
        return False
    for quorum in system.quorums:
        mass = float(sum(witness.get(element, 0.0) for element in quorum))
        if mass < load - tolerance:
            return False
    return True
