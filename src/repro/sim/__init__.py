"""Discrete-event distributed-system simulator (the paper's Section 2.2).

The paper's evaluation is analytical; this subpackage provides the system
model it assumes, so that every closed-form quantity (communication cost,
availability, per-replica load) can also be *measured* end-to-end:

* sites = processing unit + storage + unique SID, fail-stop with transient,
  detectable failures (:mod:`repro.sim.site`, :mod:`repro.sim.failures`);
* bidirectional links with latency, loss and partitions
  (:mod:`repro.sim.network`);
* timestamps of (version, SID) and one-copy-equivalent reads
  (:mod:`repro.sim.replica`);
* a centralised concurrency-control scheme (:mod:`repro.sim.locks`);
* writes executed atomically with 2PC (:mod:`repro.sim.coordinator`);
* client workload generation and measurement (:mod:`repro.sim.workload`,
  :mod:`repro.sim.monitor`);
* one-call experiment wiring (:mod:`repro.sim.engine`);
* structured tracing of every operation (spans, message counters, lock
  metrics) via :mod:`repro.obs` — pass ``SimulationConfig(trace=True)``.
"""

from importlib import import_module

# name -> submodule that defines it.  A package ``__init__`` imports
# nothing a ``repro serve`` child does not run (DESIGN §2.16): a replica
# site imports ``repro.sim.site`` and so executes this file, but needs
# neither the coordinator nor the engine.  Names resolve on first access
# (PEP 562) and are cached in the module namespace; the hot modules import
# from the submodules directly, so nothing is deferred into a measured
# phase.
_EXPORTS = {
    "AbortMessage": "messages",
    "BernoulliFailures": "failures",
    "CommitMessage": "messages",
    "CrashRepairProcess": "failures",
    "FailureInjector": "failures",
    "LockManager": "locks",
    "LockMode": "locks",
    "Monitor": "monitor",
    "Network": "network",
    "OperationOutcome": "outcome",
    "PartitionSpec": "network",
    "PrepareMessage": "messages",
    "QuorumCoordinator": "coordinator",
    "ReadReply": "messages",
    "ReadRequest": "messages",
    "ReconfigOutcome": "reconfigure",
    "ReconfigStatus": "reconfigure",
    "Scheduler": "events",
    "SimulationConfig": "engine",
    "SimulationResult": "engine",
    "Site": "site",
    "Timestamp": "replica",
    "TreeReconfigurer": "reconfigure",
    "VersionedStore": "replica",
    "VoteMessage": "messages",
    "Workload": "workload",
    "WorkloadSpec": "workload",
    "run_workload": "engine",
    "simulate": "engine",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module 'repro.sim' has no attribute {name!r}")
    value = getattr(import_module(f"repro.sim.{submodule}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
