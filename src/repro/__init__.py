"""repro — the arbitrary tree-structured replica control protocol.

A production-quality reproduction of Bahsoun, Basmadjian & Guerraoui,
*"An Arbitrary Tree-Structured Replica Control Protocol"* (ICDCS 2008):

* :mod:`repro.core` — the arbitrary protocol: logical/physical trees,
  Algorithm 1, quorum construction, closed-form metrics, the six named
  configurations and a tuning advisor;
* :mod:`repro.quorums` — quorum-system theory (coteries, strategies, the
  optimal-load LP, availability);
* :mod:`repro.protocols` — the baselines the paper compares against
  (tree quorums, HQC, ROWA, majority, grid, finite projective planes);
* :mod:`repro.sim` — a discrete-event distributed-system simulator
  implementing the paper's Section 2.2 system model (fail-stop sites,
  lossy links, partitions, timestamps, 2PC, centralised locking);
* :mod:`repro.analysis` — figure/table sweeps used by the benchmarks.

Quickstart::

    from repro import core

    tree = core.from_spec("1-3-5")          # the paper's running example
    protocol = core.ArbitraryProtocol(tree)
    summary = core.analyse(tree, p=0.7)
    print(summary.read_cost, summary.write_load)
"""

from importlib import import_module

__version__ = "1.0.0"

__all__ = ["analysis", "core", "protocols", "quorums", "sim", "__version__"]

# A package ``__init__`` imports nothing a ``repro serve`` child does not
# run (DESIGN §2.16): every ``python -m repro`` process executes this file,
# and a replica site needs none of the five subpackages below whole.  They
# load on first attribute access (PEP 562) and are then cached in the
# module namespace, so ``repro.core`` costs one ``__getattr__`` call ever.
_SUBPACKAGES = frozenset(__all__) - {"__version__"}


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        return import_module(f"repro.{name}")
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SUBPACKAGES)
