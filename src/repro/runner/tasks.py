"""Picklable task records and the three parallel workload orchestrators.

Workers in a process pool receive tasks by pickling, so tasks carry only
plain data: a sweep shard is (quantities, sizes, p, configs); a Monte-Carlo
chunk is (system reference, op, p, samples, seed); a simulation repeat is a
:class:`SimParams` record and a sharded one the
:class:`~repro.shard.store.ShardedConfig` itself (its ``systems`` are
references).  Quorum systems are never pickled — workers
rebuild them from a :data:`SystemRef` (``("tree", spec)`` or
``("protocol", name, n)``), which is both cheaper than shipping a
materialised system and immune to unpicklable caches.

Each orchestrator derives its per-task seeds from the master seed with
:func:`~repro.runner.pool.derive_seeds` and folds shard results in task
order, so output is bit-identical across job counts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.fault.retry import RetryPolicySpec
    from repro.shard.store import ShardedConfig

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
from repro.runner.pool import ProgressCallback, derive_seeds, run_tasks
from repro.sim.monitor import Monitor, ShardedMonitor

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
# repeated-seed simulations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SimParams:
    """Plain-data simulation parameters (the CLI's knobs, picklable).

    The fault-layer fields all default to off, so a legacy record builds a
    byte-identical configuration: ``retry_policy`` is a picklable
    :class:`~repro.fault.retry.RetryPolicySpec` (workers rebuild the
    policy object per coordinator), ``chaos`` names a scenario from
    :data:`~repro.fault.scenarios.CHAOS_SCENARIOS` (or ``"all"``)
    composed onto the ``p``-driven failures, and ``chaos_horizon`` bounds
    the scenario's schedule.
    """

    spec: str = "1-3-5"
    operations: int = 2000
    read_fraction: float = 0.5
    p: float = 1.0
    seed: int = 0
    protocol: str | None = None
    n: int = 0
    drop: float = 0.0
    max_attempts: int = 1
    trace: bool = False
    retry_policy: "RetryPolicySpec | None" = None
    detector: bool = False
    chaos: str | None = None
    chaos_horizon: float = 1000.0
    check_invariants: bool = False
    batch_window: float = 0.0
    leases: bool = False
    reshape_at: float = 0.0
    reshape_spec: str | None = None


def build_sim_config(params: SimParams):
    """The ``(SimulationConfig, label)`` pair a :class:`SimParams` describes.

    This is the single source of the CLI's simulation defaults (Poisson
    arrivals at rate 0.25 over 32 keys, timeout 8, Bernoulli failures
    resampled every 40 time units when ``p < 1``); the commands delegate
    here so CLI runs and pool workers build byte-identical configs.  Every
    field :class:`SimParams` shares by name with ``SimulationConfig``
    (``seed``, ``leases``, ``reshape_at``, ...) is passed through as is.
    """
    from repro.protocols.zoo import quorum_system
    from repro.sim import BernoulliFailures, SimulationConfig, WorkloadSpec
    from repro.sim.failures import CompositeFailures, NoFailures

    failures = (
        NoFailures() if params.p >= 1.0
        else BernoulliFailures(
            p=params.p, seed=params.seed, resample_every=40.0
        )
    )
    workload = WorkloadSpec(
        operations=params.operations,
        read_fraction=params.read_fraction,
        keys=32,
        arrival="poisson",
        rate=0.25,
    )
    if params.protocol is None:
        tree = from_spec(params.spec)
        system = None
        n = tree.n
        label = f"simulation of {params.spec}"
    else:
        tree = None
        system = quorum_system(
            params.protocol, params.n or from_spec(params.spec).n
        )
        n = system.n
        label = f"simulation of {system.name} (n = {system.n})"
    if params.chaos is not None:
        from repro.fault.scenarios import chaos_injector

        scenario = chaos_injector(
            params.chaos, n, seed=params.seed, horizon=params.chaos_horizon
        )
        failures = (
            scenario if isinstance(failures, NoFailures)
            else CompositeFailures([failures, scenario])
        )
        label = f"{label} under {params.chaos} chaos"
    shared = {f.name for f in fields(SimParams)} & {
        f.name for f in fields(SimulationConfig)
    }
    config = SimulationConfig(
        tree=tree, system=system, workload=workload,
        failures=failures, drop_probability=params.drop, timeout=8.0,
        **{name: getattr(params, name) for name in shared},
    )
    return config, label


def _run_sim_task(params: SimParams) -> Monitor:
    from repro.sim import simulate

    config, _ = build_sim_config(params)
    return simulate(config).monitor


def parallel_simulations(
    params: SimParams,
    repeats: int,
    master_seed: int | None = None,
    jobs: int = 1,
    progress: ProgressCallback | None = None,
) -> list[Monitor]:
    """Run ``repeats`` independently seeded simulations of one config.

    Repeat k always simulates under the k-th child seed of ``master_seed``
    (default: ``params.seed``), so the monitor list — and any
    :func:`~repro.runner.merge.merge_monitors` fold over it — is identical
    at every job count.
    """
    if repeats < 1:
        raise ValueError("need at least one repeat")
    master = params.seed if master_seed is None else master_seed
    tasks = [
        replace(params, seed=child_seed)
        for child_seed in derive_seeds(master, repeats)
    ]
    return run_tasks(_run_sim_task, tasks, jobs=jobs, progress=progress)


# ----------------------------------------------------------------------
# repeated-seed sharded simulations
# ----------------------------------------------------------------------


def _run_shard_sim_task(config: "ShardedConfig") -> ShardedMonitor:
    from repro.shard import simulate_sharded

    return simulate_sharded(config).monitor


def parallel_shard_simulations(
    config: "ShardedConfig",
    repeats: int,
    master_seed: int | None = None,
    jobs: int = 1,
    progress: ProgressCallback | None = None,
) -> list[ShardedMonitor]:
    """Run ``repeats`` independently seeded sharded simulations.

    Same contract as :func:`parallel_simulations`: repeat k runs under the
    k-th child seed of ``master_seed`` (default ``config.seed``) no matter
    the job count, and the returned list folds shard-wise through
    :func:`~repro.runner.merge.merge_sharded_monitors` to bytes identical
    to a serial loop.
    """
    if repeats < 1:
        raise ValueError("need at least one repeat")
    master = config.seed if master_seed is None else master_seed
    tasks = [
        replace(config, seed=child_seed)
        for child_seed in derive_seeds(master, repeats)
    ]
    return run_tasks(_run_shard_sim_task, tasks, jobs=jobs, progress=progress)
