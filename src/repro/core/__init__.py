"""The paper's primary contribution: the arbitrary tree protocol.

* :mod:`repro.core.tree` — the logical/physical tree structure (Section 3.1);
* :mod:`repro.core.builder` — tree constructors, including Algorithm 1 and the
  MOSTLY-READ / MOSTLY-WRITE / UNMODIFIED shapes (Sections 3.3 and 4);
* :mod:`repro.core.protocol` — read/write quorum construction (Section 3.2);
* :mod:`repro.core.metrics` — closed-form cost/availability/load analysis
  (Sections 3.2-3.3 and the appendix);
* :mod:`repro.core.config` — the six named configurations of Section 4;
* :mod:`repro.core.tuning` — frequency-aware tree configuration advisor.
"""

from importlib import import_module

# name -> submodule that defines it, resolved on first access (PEP 562)
# and cached in the module namespace: ``repro.core.builder`` (the
# cluster's and the simulator's entry) imports this file, and needs
# neither the proofs nor the tuning advisor, which reach numpy and scipy.
_EXPORTS = {
    "ArbitraryProtocol": "protocol",
    "ArbitraryTree": "tree",
    "Configuration": "config",
    "NodeKind": "tree",
    "OptimalityProof": "proofs",
    "TreeMetrics": "metrics",
    "TreeNode": "tree",
    "TuningResult": "tuning",
    "algorithm_1": "builder",
    "analyse": "metrics",
    "balanced_tree": "builder",
    "expected_read_load": "metrics",
    "expected_write_load": "metrics",
    "from_spec": "builder",
    "limit_read_availability": "metrics",
    "limit_write_availability": "metrics",
    "make_tree": "config",
    "mostly_read": "builder",
    "mostly_write": "builder",
    "prove_lower_bound_for_binary_tree": "proofs",
    "prove_read_load": "proofs",
    "prove_write_load": "proofs",
    "read_availability": "metrics",
    "read_cost": "metrics",
    "read_load": "metrics",
    "recommend": "tuning",
    "recommended_tree": "builder",
    "sqrt_levels": "builder",
    "uniform_tree": "builder",
    "write_availability": "metrics",
    "write_cost_avg": "metrics",
    "write_cost_max": "metrics",
    "write_cost_min": "metrics",
    "write_load": "metrics",
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
