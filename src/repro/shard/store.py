"""The sharded multi-object keyspace: N replica groups behind one router.

The paper's protocol replicates a *single* object; a production keyspace
serves millions of keys.  This module composes the two: a
:class:`~repro.shard.router.ShardRouter` partitions the key indices onto
``shards`` shards, each shard runs its own complete replica group — any
:mod:`repro.protocols.zoo` quorum system, heterogeneous shapes allowed —
on a shared discrete-event scheduler, and a
:class:`~repro.shard.balancer.LoadBalancer` spreads the client stream
over each shard's coordinator pool.  The
:class:`~repro.sim.workload.Workload` drives the whole thing through its
dispatcher hook: every picked key is routed to its shard's coordinator
instead of an assumed single object.

Determinism contract (mirrors the engine's): one master RNG seeded with
``seed`` derives, in order, a ``(network, coordinator, failure)`` seed
triple per shard (shard order), then the workload seed — so a run is a
pure function of its config, and repeated-seed fan-outs merge
bit-identically through :class:`~repro.sim.monitor.ShardedMonitor`'s
shard-wise folds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.fault.retry import RetryPolicySpec
from repro.quorums.system import QuorumSystem
from repro.shard.balancer import LoadBalancer
from repro.shard.router import ShardRouter, make_router
from repro.sim.coordinator import OperationOutcome, QuorumCoordinator
from repro.sim.engine import (
    ReplicaGroup,
    SimulationConfig,
    build_replica_group,
    run_workload,
)
from repro.sim.events import Scheduler
from repro.sim.failures import BernoulliFailures, NoFailures
from repro.sim.monitor import Monitor, ShardedMonitor
from repro.sim.network import NetworkStats, RegionLatencyMatrix
from repro.sim.workload import Workload, WorkloadSpec
from repro.obs.recorder import NULL_RECORDER


@dataclass
class ShardedConfig:
    """Everything a sharded simulation run needs.

    Attributes
    ----------
    workload:
        The client stream (mix, arrivals, key popularity).  ``keys`` is
        the size of the *global* keyspace the router partitions.
    shards:
        Number of shards (replica groups).
    systems:
        Per-shard quorum systems.  Each entry is either a built
        :class:`~repro.quorums.system.QuorumSystem` or a plain-data
        system reference (``("tree", "1-3-5")`` / ``("protocol",
        "majority", 9)`` — the runner's picklable format).  A single
        entry is broadcast to every shard; otherwise the length must
        equal ``shards``.  Heterogeneous shapes are explicitly allowed —
        e.g. a read-optimised tree for the Zipf head shard and majority
        elsewhere.
    router / router_seed:
        Partitioning scheme (``"hash"`` or ``"range"``) and the hash
        placement seed.
    balancer:
        Coordinator-pool policy per shard (``"round-robin"`` or
        ``"least-outstanding"``).
    clients_per_shard:
        Coordinators per shard; the balancer spreads traffic over them.
    p:
        Per-replica Bernoulli availability per shard (1.0 = no
        failures), resampled every 40 time units like the CLI default.
    regions / local_latency / remote_latency / latency_jitter:
        When ``regions > 0``, each shard's sites are assigned round-robin
        to that many regions and messages pay a
        :class:`~repro.sim.network.RegionLatencyMatrix` cost
        (``local_latency`` intra-region, ``remote_latency`` across).
        ``latency`` is used as the scalar model when ``regions == 0``.
    """

    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    shards: int = 4
    systems: tuple = (("tree", "1-3-5"),)
    router: str = "hash"
    router_seed: int = 0
    balancer: str = "round-robin"
    clients_per_shard: int = 1
    p: float = 1.0
    latency: Any = 1.0
    regions: int = 0
    local_latency: float = 1.0
    remote_latency: float = 3.0
    latency_jitter: float = 0.0
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    timeout: float = 16.0
    max_attempts: int = 3
    service_time: float = 0.0
    seed: int = 0
    retry_policy: RetryPolicySpec | None = None
    detector: bool = False
    probe_interval: float = 30.0
    suspect_threshold: int = 1
    batch_window: float = 0.0
    leases: bool = False

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if not self.systems:
            raise ValueError("need at least one system (broadcast) entry")
        if len(self.systems) not in (1, self.shards):
            raise ValueError(
                f"systems must have 1 or {self.shards} entries, "
                f"got {len(self.systems)}"
            )
        if self.clients_per_shard < 1:
            raise ValueError("need at least one client per shard")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")

    def resolve_systems(self) -> list[tuple[QuorumSystem, int]]:
        """The per-shard ``(system, replica count)`` pairs, refs resolved."""
        from repro.runner.tasks import resolve_system

        entries = list(self.systems)
        if len(entries) == 1:
            entries = entries * self.shards
        resolved: list[tuple[QuorumSystem, int]] = []
        for entry in entries:
            system = (
                resolve_system(entry) if isinstance(entry, tuple) else entry
            )
            universe = system.universe
            n = len(universe)
            if universe != frozenset(range(n)):
                raise ValueError(
                    f"shard system {getattr(system, 'name', system)!r} must "
                    f"have universe 0..{n - 1} to map onto replica sites"
                )
            resolved.append((system, n))
        return resolved


class ShardedStore:
    """Router + balancer + per-shard replica groups, ready to dispatch.

    :meth:`dispatch` is the workload's dispatcher: key index -> shard
    (router) -> coordinator (balancer), plus a per-operation sink that
    releases the balancer slot and records the outcome into the shard's
    monitor.
    """

    def __init__(
        self,
        router: ShardRouter,
        balancer: LoadBalancer,
        groups: list[ReplicaGroup],
        monitor: ShardedMonitor,
    ) -> None:
        if len(groups) != router.shards or len(monitor) != router.shards:
            raise ValueError("router/groups/monitor shard counts must agree")
        self.router = router
        self.balancer = balancer
        self.groups = groups
        self.monitor = monitor

    @property
    def coordinators(self) -> list[QuorumCoordinator]:
        """Every coordinator, shard-major (shard 0's pool first)."""
        return [
            coordinator
            for group in self.groups
            for coordinator in group.coordinators
        ]

    def dispatch(self, key_index: int):
        """Route one key index: ``(coordinator, outcome sink)``."""
        shard = self.router.shard_of(key_index)
        slot, coordinator = self.balancer.pick(shard)
        record = self.monitor.shards[shard].record

        def sink(outcome: OperationOutcome) -> None:
            self.balancer.release(shard, slot)
            record(outcome)

        return coordinator, sink

    def shard_keys(self, shard: int, keyspace: int) -> list[str]:
        """Key names of a ``keyspace``-key workload that route to ``shard``.

        The workload names key index ``i`` as ``f"k{i}"``; a shard's
        migration key list is exactly the indices the router sends to it.
        """
        return [
            f"k{index}" for index in range(keyspace)
            if self.router.shard_of(index) == shard
        ]

    def reconfigure_shard(
        self,
        shard: int,
        new_tree,
        keys: list[str],
        on_done,
        invariants=None,
    ):
        """Launch a tree change on one shard's replica group.

        Reconfiguration is naturally shard-local: only the chosen shard's
        coordinator pool transitions (online dual-quorum epochs) while
        every other shard keeps serving untouched.  ``keys`` is the
        shard's own key list (see :meth:`shard_keys`).  Returns the
        :class:`~repro.sim.reconfigure.TreeReconfigurer` driving it.
        """
        from repro.sim.reconfigure import TreeReconfigurer

        group = self.groups[shard]
        reconfigurer = TreeReconfigurer(
            group.coordinators[0], invariants=invariants
        )
        reconfigurer.reconfigure_online(new_tree, keys, on_done)
        return reconfigurer

    def network_stats(self) -> NetworkStats:
        """Message counters summed across every shard's network."""
        total = NetworkStats()
        for group in self.groups:
            stats = group.network.stats
            total.sent += stats.sent
            total.delivered += stats.delivered
            total.duplicated += stats.duplicated
            total.dropped_loss += stats.dropped_loss
            total.dropped_partition += stats.dropped_partition
            total.dropped_dead += stats.dropped_dead
        return total


def _shard_latency(config: ShardedConfig, n: int) -> Any:
    """The latency model one shard's network runs under."""
    if config.regions <= 0:
        return config.latency
    return RegionLatencyMatrix.round_robin(
        range(n),
        config.regions,
        local=config.local_latency,
        remote=config.remote_latency,
        jitter=config.latency_jitter,
    )


def build_sharded_simulation(
    config: ShardedConfig,
) -> tuple[Scheduler, Workload, ShardedStore]:
    """Wire a sharded simulation without running it.

    Seed derivation order (the determinism contract): for each shard in
    shard order, a ``(network, coordinator, failure)`` 64-bit triple off
    the master stream — the failure seed is drawn even when ``p == 1`` so
    turning failures on never reshuffles another shard's streams — then
    one workload seed.
    """
    resolved = config.resolve_systems()
    scheduler = Scheduler()
    master = random.Random(config.seed)
    groups: list[ReplicaGroup] = []
    monitors: list[Monitor] = []
    for system, n in resolved:
        network_seed = master.getrandbits(64)
        coordinator_seed = master.getrandbits(64)
        failure_seed = master.getrandbits(64)
        failures = (
            NoFailures()
            if config.p >= 1.0
            else BernoulliFailures(
                p=config.p, seed=failure_seed, resample_every=40.0
            )
        )
        shard_config = SimulationConfig(
            system=system,
            workload=config.workload,
            failures=failures,
            latency=_shard_latency(config, n),
            drop_probability=config.drop_probability,
            duplicate_probability=config.duplicate_probability,
            timeout=config.timeout,
            max_attempts=config.max_attempts,
            clients=config.clients_per_shard,
            service_time=config.service_time,
            retry_policy=config.retry_policy,
            detector=config.detector,
            probe_interval=config.probe_interval,
            suspect_threshold=config.suspect_threshold,
            batch_window=config.batch_window,
            leases=config.leases,
        )
        groups.append(
            build_replica_group(
                shard_config, system, n, scheduler, NULL_RECORDER,
                network_seed, coordinator_seed,
            )
        )
        monitors.append(Monitor(replica_ids=tuple(range(n))))
    workload_seed = master.getrandbits(64)
    router = make_router(
        config.router, config.shards, config.workload.keys, config.router_seed
    )
    balancer = LoadBalancer(
        [group.coordinators for group in groups], policy=config.balancer
    )
    store = ShardedStore(
        router=router,
        balancer=balancer,
        groups=groups,
        monitor=ShardedMonitor(monitors),
    )
    workload = Workload(
        spec=config.workload,
        coordinator=store.coordinators,
        scheduler=scheduler,
        rng=random.Random(workload_seed),
        on_outcome=lambda _outcome: None,
        dispatcher=store.dispatch,
    )
    return scheduler, workload, store


@dataclass
class ShardedResult:
    """Everything measured by one sharded simulation run."""

    config: ShardedConfig
    monitor: ShardedMonitor
    store: ShardedStore
    duration: float
    events_processed: int

    def summary(self) -> dict[str, float]:
        """Aggregate headline numbers plus throughput and message counters.

        ``ops_per_sec`` is *simulated* throughput: completed operations
        per simulated time unit — the capacity number shard counts are
        benchmarked on.
        """
        result = self.monitor.summary()
        completed = result["reads"] + result["writes"]
        result["ops_per_sec"] = (
            completed / self.duration if self.duration > 0 else float("nan")
        )
        stats = self.store.network_stats()
        result["messages_sent"] = float(stats.sent)
        result["messages_delivered"] = float(stats.delivered)
        result["messages_dropped"] = float(stats.dropped)
        result["duration"] = self.duration
        return result


def simulate_sharded(
    config: ShardedConfig, max_events: int = 50_000_000
) -> ShardedResult:
    """Run one configured sharded simulation until the workload completes."""
    scheduler, workload, store = build_sharded_simulation(config)
    run_workload(scheduler, workload, max_events)
    return ShardedResult(
        config=config,
        monitor=store.monitor,
        store=store,
        duration=scheduler.now,
        events_processed=scheduler.processed_events,
    )
