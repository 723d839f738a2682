"""Picklable task records and the three parallel workload orchestrators.

Workers in a process pool receive tasks by pickling, so tasks carry only
plain data: a sweep shard is (quantities, sizes, p, configs); a Monte-Carlo
chunk is (system reference, op, p, samples, seed); a repeated run is its
child seed, handed to a picklable ``run`` that builds the whole run from
it.  Quorum systems are never pickled — workers
rebuild them from a :data:`SystemRef` (``("tree", spec)`` or
``("protocol", name, n)``), which is both cheaper than shipping a
materialised system and immune to unpicklable caches.

Each orchestrator derives its per-task seeds from the master seed with
:func:`~repro.runner.pool.derive_seeds` and returns shard results in task
order, so output is bit-identical across job counts.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.analysis.sweeps import (
    DEFAULT_P,
    DEFAULT_SIZES,
    FigureSeries,
    sweep_configurations,
)
from repro.core import from_spec
from repro.core.config import ALL_CONFIGURATIONS, Configuration
from repro.core.protocol import ArbitraryProtocol
from repro.quorums.availability import estimate_availability_monte_carlo
from repro.quorums.system import DEFAULT_MAX_QUORUMS, QuorumSystem
from repro.runner.merge import merge_availability, merge_series
from repro.runner.pool import (
    ProgressCallback,
    Result,
    derive_seeds,
    run_tasks,
)

#: Plain-data reference to a quorum system: ``("tree", "1-3-5")`` or
#: ``("protocol", "majority", 15)``.
SystemRef = tuple

#: Default Monte-Carlo samples per pool task: large enough to amortise the
#: per-task kernel setup, small enough to shard a default 100k estimate
#: across four workers.
DEFAULT_AVAILABILITY_CHUNK = 25_000

#: Default sweep sizes per pool task.
DEFAULT_SIZE_CHUNK = 4


def resolve_system(ref: SystemRef) -> QuorumSystem:
    """Rebuild the referenced quorum system inside a worker."""
    from repro.protocols.zoo import quorum_system

    kind = ref[0]
    if kind == "tree":
        return ArbitraryProtocol(from_spec(ref[1]))
    if kind == "protocol":
        return quorum_system(ref[1], ref[2])
    raise ValueError(f"unknown system reference kind {kind!r}")


# ----------------------------------------------------------------------
# parameter sweeps
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepTask:
    """One shard of a figure sweep: a contiguous run of sizes."""

    quantities: tuple[str, ...]
    sizes: tuple[int, ...]
    p: float
    configs: tuple[Configuration, ...]


def _run_sweep_task(task: SweepTask) -> FigureSeries:
    return sweep_configurations(
        task.quantities, task.sizes, task.p, task.configs
    )


def parallel_sweep(
    quantities: tuple[str, ...],
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    p: float = DEFAULT_P,
    configs: tuple[Configuration, ...] = ALL_CONFIGURATIONS,
    jobs: int = 1,
    size_chunk: int = DEFAULT_SIZE_CHUNK,
    progress: ProgressCallback | None = None,
) -> FigureSeries:
    """A figure sweep sharded by size runs across the pool.

    Shards are contiguous size runs (every shard covers all configs), and
    the merge concatenates per-config point tuples in shard order, so the
    result equals ``sweep_configurations(quantities, sizes, p, configs)``
    exactly at any job count.
    """
    if size_chunk < 1:
        raise ValueError("size_chunk must be positive")
    tasks = [
        SweepTask(
            quantities=tuple(quantities),
            sizes=tuple(sizes[start:start + size_chunk]),
            p=p,
            configs=tuple(configs),
        )
        for start in range(0, len(sizes), size_chunk)
    ]
    if not tasks:
        return FigureSeries(quantities=tuple(quantities), series={}, p=p)
    shards = run_tasks(_run_sweep_task, tasks, jobs=jobs, progress=progress)
    return merge_series(shards)


# ----------------------------------------------------------------------
# Monte-Carlo availability
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AvailabilityChunk:
    """One Monte-Carlo shard: ``samples`` draws under its own child seed."""

    ref: SystemRef
    op: str
    p: float
    samples: int
    seed: int


def _run_availability_chunk(chunk: AvailabilityChunk) -> float:
    system = resolve_system(chunk.ref)
    quorums = system.materialise(chunk.op, DEFAULT_MAX_QUORUMS)
    return estimate_availability_monte_carlo(
        quorums,
        chunk.p,
        universe=system.universe,
        samples=chunk.samples,
        seed=chunk.seed,
    )


def parallel_availability(
    ref: SystemRef,
    p: float,
    op: str = "read",
    samples: int = 100_000,
    seed: int = 0,
    jobs: int = 1,
    chunk: int = DEFAULT_AVAILABILITY_CHUNK,
    progress: ProgressCallback | None = None,
) -> float:
    """Monte-Carlo availability estimated over seed-independent chunks.

    The chunk layout and per-chunk seeds depend only on ``samples``,
    ``chunk`` and ``seed`` — never on ``jobs`` — and chunk fractions merge
    by ``fsum``-weighted mean, so the estimate is bit-identical across job
    counts.  (It intentionally differs from a single ``samples``-draw call:
    sharding re-seeds per chunk.)
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if chunk < 1:
        raise ValueError("chunk must be positive")
    sizes = [chunk] * (samples // chunk)
    if samples % chunk:
        sizes.append(samples % chunk)
    seeds = derive_seeds(seed, len(sizes))
    tasks = [
        AvailabilityChunk(
            ref=ref, op=op, p=p, samples=size, seed=child_seed
        )
        for size, child_seed in zip(sizes, seeds)
    ]
    fractions = run_tasks(
        _run_availability_chunk, tasks, jobs=jobs, progress=progress
    )
    return merge_availability(fractions, sizes)


# ----------------------------------------------------------------------
# repeated-seed runs
# ----------------------------------------------------------------------


def parallel_runs(
    run: Callable[[int], Result],
    repeats: int,
    master_seed: int,
    jobs: int = 1,
    progress: ProgressCallback | None = None,
) -> list[Result]:
    """``run(seed)`` at each of ``repeats`` child seeds of ``master_seed``.

    ``run`` builds its whole run from the seed it is given, failure
    schedule included, with the code the serial run uses, so no two
    repeats share a schedule; with ``jobs > 1`` it must pickle (a
    module-level function, or a ``functools.partial`` of one).  Repeat k
    always runs at the k-th child seed, so the result list, and any merge
    fold over it, is identical at every job count.
    """
    if repeats < 1:
        raise ValueError("need at least one repeat")
    return run_tasks(
        run, derive_seeds(master_seed, repeats), jobs=jobs, progress=progress
    )
