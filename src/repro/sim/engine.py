"""One-call experiment wiring: tree + network + failures + workload.

:func:`simulate` assembles every piece of the Section 2.2 system model —
replica sites, lossy network, centralised lock manager, quorum coordinator,
failure injection and a client workload — runs the event loop to
completion, and returns the measured quantities side by side with the
closed-form predictions so experiments can compare them directly.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.builder import from_spec
from repro.core.protocol import ArbitraryProtocol
from repro.core.tree import ArbitraryTree
from repro.core.tuning import plan_reshape
from repro.fault.detector import SuspectList
from repro.fault.invariants import InvariantChecker
from repro.fault.retry import RetryPolicySpec
from repro.obs.recorder import NULL_RECORDER, NullRecorder, TraceRecorder
from repro.quorums.system import QuorumSystem
from repro.sim.coordinator import DoneCallback, QuorumCoordinator
from repro.sim.events import Scheduler
from repro.sim.failures import FailureInjector, NoFailures
from repro.sim.leases import LeaseCache
from repro.sim.locks import LockManager
from repro.sim.monitor import Monitor
from repro.sim.network import Network, NetworkStats
from repro.sim.outcome import OperationOutcome
from repro.sim.reconfigure import ReconfigOutcome, TreeReconfigurer
from repro.sim.site import Site
from repro.sim.workload import Workload, WorkloadSpec

if TYPE_CHECKING:
    from repro.runtime.interfaces import Transport

#: Network address of the (single) coordinator.
COORDINATOR_SID = -1


@dataclass
class SimulationConfig:
    """Everything a simulation run needs.

    Attributes
    ----------
    tree:
        The arbitrary-protocol tree to replicate over.  (To simulate a
        different protocol, pass ``system`` instead.)
    system:
        Alternative to ``tree``: any
        :class:`~repro.quorums.system.QuorumSystem` — every protocol in
        :mod:`repro.protocols.zoo` plugs in directly.  The replica count
        comes from the system's ``universe``.
    workload:
        The operation stream (mix, arrivals, key popularity).
    failures:
        Failure injector (default: none).
    latency:
        Per-message latency (a float for fixed, or a latency model callable).
    drop_probability:
        I.i.d. message loss probability.
    service_time:
        Per-message processing time at each replica (0 = instantaneous,
        the analytical setting; positive values add FIFO queueing so load
        becomes a throughput bottleneck).
    timeout:
        Coordinator quorum-phase timeout.
    max_attempts:
        Quorum attempts per operation; 1 measures raw availability.
    clients:
        Number of coordinators issuing operations (round-robin).  They
        share the centralised lock manager, transaction-id source and
        version registry, so concurrent clients stay serialisable.
    seed:
        Master RNG seed; every run with the same config is identical.
    trace:
        When True, wire a :class:`~repro.obs.recorder.TraceRecorder`
        through the whole stack (coordinator spans, network message
        counters, lock wait/hold metrics); the recorder lands on
        ``Monitor.recorder`` / ``SimulationResult.recorder``.  Off by
        default — the no-op recorder keeps the hot paths at full speed.
    retry_policy:
        Optional picklable :class:`~repro.fault.retry.RetryPolicySpec`.
        Each coordinator builds its own policy instance from it, with a
        seed derived from the coordinator master stream, so backoff
        jitter is deterministic per run and per coordinator.  ``None``
        keeps the legacy immediate-retry shape (and, crucially, the
        legacy RNG streams byte-for-byte).
    detector:
        When True, attach one shared
        :class:`~repro.fault.detector.SuspectList` to every coordinator:
        silent quorum members accumulate suspicion evidence and quorum
        selection prefers quorums avoiding suspected sites.
    probe_interval / suspect_threshold:
        Failure-detector tuning (how long suspicion lasts before a site
        is rehabilitated, and how many pieces of evidence it takes).
    check_invariants:
        When True, :func:`simulate` audits every completed operation with
        an :class:`~repro.fault.invariants.InvariantChecker` (quorum
        intersection + version monotonicity) and raises
        :class:`~repro.fault.invariants.InvariantViolation` on first
        blood.  The chaos CI job runs with this on.
    leases:
        When True, every coordinator of the group shares one
        :class:`~repro.sim.leases.LeaseCache`: reads of a leased key are
        served from the cache without lock or quorum work, leases are
        revoked at a conflicting write's exclusive-lock grant and by
        liveness-epoch bumps, and committed writes re-grant them
        (write-through).  Off by default (legacy streams untouched).
    reshape_at:
        Simulated time at which to reconfigure the tree mid-run.  0 (the
        default) disables reconfiguration entirely and keeps the legacy
        event/RNG streams byte-identical.
    reshape_spec:
        Target tree spec (e.g. ``"1-4-4"``).  ``None`` plans the target
        from the live system instead: :func:`repro.core.tuning.plan_reshape`
        picks the shape for the workload's read fraction and demotes the
        failure detector's chronic suspects to the deepest level.
    """

    tree: ArbitraryTree | None = None
    system: QuorumSystem | None = None
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    failures: FailureInjector = field(default_factory=NoFailures)
    latency: Any = 1.0
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    timeout: float = 16.0
    max_attempts: int = 3
    clients: int = 1
    service_time: float = 0.0
    seed: int = 0
    trace: bool = False
    retry_policy: RetryPolicySpec | None = None
    detector: bool = False
    probe_interval: float = 30.0
    suspect_threshold: int = 1
    check_invariants: bool = False
    leases: bool = False
    reshape_at: float = 0.0
    reshape_spec: str | None = None

    def resolve(self) -> tuple[QuorumSystem, int]:
        """The (quorum system, replica count) pair this config describes.

        Replica SIDs must be ``0..n-1``; the count is derived from the
        system's universe.
        """
        if self.tree is not None:
            if self.system is not None:
                raise ValueError("provide either tree or system, not both")
            return ArbitraryProtocol(self.tree), self.tree.n
        if self.system is None:
            raise ValueError("provide either tree or system")
        universe = self.system.universe
        n = len(universe)
        if universe != frozenset(range(n)):
            raise ValueError(
                f"the system's universe must be 0..{n - 1} to map onto "
                "simulated replica sites"
            )
        return self.system, n


@dataclass
class SimulationResult:
    """Everything measured by one simulation run — or, in wall seconds,
    by a run over real sites (:meth:`~repro.runtime.cluster.LocalCluster.run`),
    whose sites are processes and whose ``events_processed`` is 0."""

    config: SimulationConfig
    monitor: Monitor
    network_stats: NetworkStats
    sites: list[Site]
    duration: float
    events_processed: int
    #: The run's trace recorder (a no-op recorder unless ``config.trace``).
    recorder: NullRecorder = NULL_RECORDER
    #: The shared failure detector (``None`` unless ``config.detector``).
    suspects: SuspectList | None = None
    #: The safety auditor (``None`` unless ``config.check_invariants``).
    invariants: InvariantChecker | None = None
    #: The shared read-lease cache (``None`` unless ``config.leases``).
    leases: LeaseCache | None = None
    #: The mid-run reconfiguration's outcome (``None`` unless
    #: ``config.reshape_at`` scheduled one).
    reconfiguration: ReconfigOutcome | None = None
    #: ``(started_at, finished_at, success)`` per read, kept only when
    #: ``config.reshape_at > 0`` (the one run with a window to measure).
    read_spans: list[tuple[float, float, bool]] = field(default_factory=list)

    def window_read_availability(self, start: float, end: float) -> float | None:
        """Fraction of reads *submitted* in ``[start, end]`` that completed
        successfully within the window (``None`` if none were submitted).

        The honest transition metric: a read counts against the window
        it was submitted in, and as unavailable if it only completed
        after the window closed.
        """
        started = [
            (finished_at, success)
            for started_at, finished_at, success in self.read_spans
            if start <= started_at <= end
        ]
        if not started:
            return None
        served = sum(
            1 for finished_at, success in started
            if success and finished_at <= end
        )
        return served / len(started)

    def summary(self) -> dict[str, float]:
        """Monitor headline numbers plus network/message counters."""
        result = self.monitor.summary()
        result["messages_sent"] = float(self.network_stats.sent)
        result["messages_delivered"] = float(self.network_stats.delivered)
        result["messages_dropped"] = float(self.network_stats.dropped)
        result["duration"] = self.duration
        return result


def child_seeds(seed: int) -> tuple[int, int, int]:
    """The network, workload and coordinator seeds of a run's ``seed``,
    on either backend (so one config issues the same operations on both).

    64 fresh bits each: seeding from ``rng.random()`` would collapse the
    seed space to a 53-bit float and correlate the child streams.  The
    order is part of the determinism contract: a *dedicated* master
    stream for coordinators comes last, so changing ``clients`` never
    perturbs the network or workload streams.
    """
    rng = random.Random(seed)
    return rng.getrandbits(64), rng.getrandbits(64), rng.getrandbits(64)


def build_coordinators(
    config: SimulationConfig,
    system: QuorumSystem,
    n: int,
    transport: Transport,
    detector_for: Callable[[int], Callable[[int], bool]],
    recorder: NullRecorder,
    coordinator_seed: int,
) -> list[QuorumCoordinator]:
    """The client half of a replica group, on either backend: one lock
    manager, transaction-id source, version floor, suspect list, lease
    cache and :class:`~repro.quorums.selection.SelectionIndex` shared by
    ``config.clients`` coordinators on ``transport`` (a :class:`Network`
    or a ``TcpTransport``); ``detector_for(sid)`` is coordinator
    ``sid``'s liveness oracle.
    """
    if config.clients < 1:
        raise ValueError("need at least one client")
    from repro.sim.transactions import TransactionIdSource

    locks = LockManager(transport.clock, recorder=recorder)
    tx_ids = TransactionIdSource()
    version_floor: dict = {}
    coordinator_master = random.Random(coordinator_seed)
    # One SuspectList shared by every coordinator: evidence gathered by one
    # client's timeouts steers every client's selection (the detector
    # models a site-local subsystem, not per-operation state).
    suspects = (
        SuspectList(
            probe_interval=config.probe_interval,
            threshold=config.suspect_threshold,
            recorder=recorder,
        )
        if config.detector
        else None
    )
    # Like the version floor, the lease cache is *group* state: one
    # client's write must revoke the lease every other client would
    # otherwise serve reads from.
    leases = (
        LeaseCache(epoch=transport.current_liveness_epoch)
        if config.leases
        else None
    )
    coordinators: list[QuorumCoordinator] = []
    shared_selector = None
    for index in range(config.clients):
        coordinator_sid = COORDINATOR_SID - index
        # The coordinator's own seed is drawn unconditionally (legacy
        # stream); the retry-policy jitter seed is drawn *only* when a
        # policy is configured, so unconfigured runs keep byte-identical
        # coordinator streams.
        coordinator_rng = random.Random(coordinator_master.getrandbits(64))
        retry_policy = (
            config.retry_policy.build(coordinator_master.getrandbits(64))
            if config.retry_policy is not None
            else None
        )
        coordinators.append(
            QuorumCoordinator(
                sid=coordinator_sid,
                network=transport,
                system=system,
                locks=locks,
                detector=detector_for(coordinator_sid),
                rng=coordinator_rng,
                timeout=config.timeout,
                max_attempts=config.max_attempts,
                writer_id=n + index,  # distinct from every replica SID
                tx_ids=tx_ids,
                version_floor=version_floor,
                recorder=recorder,
                liveness_epoch=transport.current_liveness_epoch,
                retry_policy=retry_policy,
                suspects=suspects,
                selector=shared_selector,
                leases=leases,
            )
        )
        if index == 0:
            shared_selector = coordinators[0].selector
    return coordinators


def outcome_sink(
    monitor: Monitor,
    invariants: InvariantChecker | None,
    on_outcome: DoneCallback | None,
) -> DoneCallback:
    """A run's outcome path on both backends: audit, monitor, observer."""
    sink = invariants.wrap(monitor.record) if invariants else monitor.record
    if on_outcome is None:
        return sink

    def record(outcome: OperationOutcome) -> None:
        sink(outcome)
        on_outcome(outcome)

    return record


def build_simulation(
    config: SimulationConfig,
    invariants: InvariantChecker | None = None,
    on_outcome: DoneCallback | None = None,
) -> tuple[Scheduler, Workload, Monitor, Network, list[Site]]:
    """Wire a simulation without running it (useful for custom driving).

    ``invariants`` splices a safety auditor in front of the monitor's
    outcome callback; pass your own instance to keep a reference (one is
    created internally when ``config.check_invariants`` asks for auditing
    but none is supplied).  ``on_outcome`` sees every outcome after them.
    """
    system, n = config.resolve()
    scheduler = Scheduler()
    recorder: NullRecorder = TraceRecorder() if config.trace else NULL_RECORDER
    network_seed, workload_seed, coordinator_seed = child_seeds(config.seed)
    monitor = Monitor(replica_ids=tuple(range(n)), recorder=recorder)
    if invariants is None and config.check_invariants:
        invariants = InvariantChecker()
    network = Network(
        scheduler,
        random.Random(network_seed),
        latency=config.latency,
        drop_probability=config.drop_probability,
        duplicate_probability=config.duplicate_probability,
        recorder=recorder,
    )
    sites = [
        Site(
            sid, network,
            service_time=config.service_time, timeout=config.timeout,
        )
        for sid in range(n)
    ]

    def detector_for(coordinator_sid: int) -> Callable[[int], bool]:
        def detector(sid: int) -> bool:
            # From a coordinator's vantage point a replica on the far side
            # of a partition is indistinguishable from a crashed one
            # (Section 2.2 treats partitioning as a special case of site
            # and link failures).
            return sites[sid].up and network.reachable(coordinator_sid, sid)

        return detector

    coordinators = build_coordinators(
        config, system, n, network, detector_for, recorder, coordinator_seed
    )
    config.failures.install(scheduler, sites, network)
    workload = Workload(
        spec=config.workload,
        coordinator=coordinators,
        clock=scheduler,
        rng=random.Random(workload_seed),
        on_outcome=outcome_sink(monitor, invariants, on_outcome),
    )
    return scheduler, workload, monitor, network, sites


def run_workload(
    scheduler: Scheduler, workload: Workload, max_events: int
) -> int:
    """Drive the event loop until the workload completes; returns events run.

    Stops as soon as the last operation reports its outcome (periodic
    injectors such as resampling failures would otherwise keep the queue
    non-empty forever).  ``max_events`` is a safety net against
    configuration errors, raising rather than spinning.
    """
    operations = workload.spec.operations
    # The completion hook halts the scheduler's inlined drain loop the
    # instant the last outcome reports, so the loop never pays a
    # per-event completion poll.  A workload that completes before the
    # loop starts (zero operations) leaves the stop pending and run()
    # consumes it without executing anything.
    workload.add_on_complete(scheduler.stop)
    workload.start()
    executed = scheduler.run(max_events=max_events)
    if workload.completed < operations:
        if executed >= max_events:
            raise RuntimeError(
                f"simulation exceeded {max_events} events "
                f"({workload.completed}/{operations} ops done)"
            )
        raise RuntimeError(
            "event queue drained before the workload completed "
            f"({workload.completed}/{operations} ops done)"
        )
    return executed


def _reshape_target(
    config: SimulationConfig, coordinator: QuorumCoordinator
) -> ArbitraryTree:
    """The reconfiguration target, resolved at trigger time.

    An explicit ``reshape_spec`` wins; otherwise the plan comes from the
    live system — the tuning advisor picks the shape for the workload's
    read fraction, and the failure detector's *chronic* suspects (if a
    detector is attached) are demoted to the deepest, widest level.
    """
    if config.reshape_spec is not None:
        return from_spec(config.reshape_spec)
    n = len(coordinator.system_universe())
    suspects = coordinator.suspects
    suspected = (
        suspects.chronic(coordinator.clock.now)
        if suspects is not None
        else frozenset()
    )
    plan = plan_reshape(
        n, suspected, read_fraction=config.workload.read_fraction
    )
    return plan.tree


def simulate(
    config: SimulationConfig,
    max_events: int = 5_000_000,
    on_outcome: DoneCallback | None = None,
) -> SimulationResult:
    """Run one configured simulation until the workload completes.

    A thin wrapper: :func:`build_simulation` wires the replica group and
    :func:`run_workload` drains the event loop.  ``on_outcome`` sees every
    outcome (:func:`outcome_sink`); the result keeps none.  With
    ``reshape_at`` set, the reconfiguration launches then and runs
    concurrently with the workload, the loop is drained until its outcome
    lands as ``result.reconfiguration``, and the result keeps the
    ``read_spans`` its transition window is measured on.
    """
    invariants = InvariantChecker() if config.check_invariants else None
    read_spans: list[tuple[float, float, bool]] = []
    observer = on_outcome
    if config.reshape_at > 0.0:

        def observer(outcome: OperationOutcome) -> None:
            if outcome.op_type == "read":
                read_spans.append(
                    (outcome.started_at, outcome.finished_at, outcome.success)
                )
            if on_outcome is not None:
                on_outcome(outcome)

    scheduler, workload, monitor, network, sites = build_simulation(
        config, invariants=invariants, on_outcome=observer
    )
    coordinator = workload.coordinators[0]
    reconfig_outbox: list[ReconfigOutcome] = []
    if config.reshape_at > 0.0:
        reconfigurer = TreeReconfigurer(coordinator, invariants=invariants)
        keys = [f"k{index}" for index in range(config.workload.keys)]

        def launch() -> None:
            reconfigurer.reconfigure_online(
                _reshape_target(config, coordinator), keys,
                reconfig_outbox.append,
            )

        scheduler.schedule_at(config.reshape_at, launch)
    run_workload(scheduler, workload, max_events)
    if config.reshape_at > 0.0:
        # The workload can complete while the migration is still in
        # flight; keep stepping until the reconfiguration reports — it
        # always terminates (attempts are bounded).
        drained = 0
        while not reconfig_outbox and scheduler.step():
            drained += 1
            if drained > max_events:
                raise RuntimeError(
                    "reconfiguration did not complete within the event cap"
                )
    return SimulationResult(
        config=config,
        monitor=monitor,
        network_stats=network.stats,
        sites=sites,
        duration=scheduler.now,
        events_processed=scheduler.processed_events,
        recorder=monitor.recorder,
        suspects=coordinator.suspects,
        invariants=invariants,
        leases=coordinator.leases,
        reconfiguration=reconfig_outbox[0] if reconfig_outbox else None,
        read_spans=read_spans,
    )
