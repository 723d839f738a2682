"""Parallel experiment runner: process-pool fan-out with mergeable results.

The runner shards the repository's three embarrassingly parallel workloads
— parameter sweeps, Monte-Carlo availability estimation and repeated-seed
runs (simulated or sharded) — across a process pool, with three invariants:

* **determinism** — every task's seed is derived from the master seed by
  ``getrandbits(64)`` child streams (:func:`~repro.runner.pool.derive_seeds`),
  and the task list, chunk sizes and seeds never depend on ``jobs``;
* **order-stable merging** — shard results are folded in task order through
  the ``merge()`` paths on :class:`~repro.sim.monitor.Monitor`,
  :class:`~repro.obs.recorder.TraceRecorder`,
  :class:`~repro.obs.stats.Histogram` and
  :class:`~repro.analysis.sweeps.FigureSeries`;
* therefore **bit-identity** — a run at ``--jobs 4`` produces exactly the
  bytes of the ``--jobs 1`` run under the same master seed.

Layout: :mod:`~repro.runner.pool` is the generic fan-out primitive,
:mod:`~repro.runner.tasks` defines the picklable task records and the three
workload orchestrators, :mod:`~repro.runner.merge` folds shard results and
:mod:`~repro.runner.progress` renders completion ticks.
"""

from repro.runner.merge import (
    merge_availability,
    merge_monitors,
    merge_series,
)
from repro.runner.pool import derive_seeds, run_tasks
from repro.runner.progress import ProgressPrinter
from repro.runner.tasks import (
    AvailabilityChunk,
    SweepTask,
    SystemRef,
    parallel_availability,
    parallel_runs,
    parallel_sweep,
    resolve_system,
)

__all__ = [
    "AvailabilityChunk",
    "ProgressPrinter",
    "SweepTask",
    "SystemRef",
    "derive_seeds",
    "merge_availability",
    "merge_monitors",
    "merge_series",
    "parallel_availability",
    "parallel_runs",
    "parallel_sweep",
    "resolve_system",
    "run_tasks",
]
