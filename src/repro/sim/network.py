"""Message-passing network with latency, loss and partitions (Section 2.2).

Links are bidirectional and may fail by not delivering, dropping or
delaying messages; a special failure mode partitions the system so that only
sites within the same partition can communicate.  All of these are modelled
here:

* per-message latency drawn from a configurable distribution;
* i.i.d. message loss with probability ``drop_probability``;
* a partition map: messages crossing partition boundaries are dropped;
* messages addressed to a crashed endpoint are dropped at delivery time
  (fail-stop sites do not process input while down).

Endpoints register under their SID and must expose ``receive(message)`` and
an ``up`` attribute (:class:`Endpoint`) — both replicas
(:class:`repro.sim.site.Site`) and coordinators qualify.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Protocol

from repro.obs.recorder import NULL_RECORDER, NullRecorder
from repro.sim.events import Scheduler
from repro.sim.messages import Message


class Endpoint(Protocol):
    """Anything that can be addressed on the network."""

    #: Whether the endpoint currently processes messages.  A plain
    #: attribute (not a property) by contract: the network reads it on
    #: every delivery, and endpoints flip it on crash/recover.
    up: bool

    def receive(self, message: Message) -> None:
        """Handle a delivered message."""
        ...


@dataclass
class PartitionSpec:
    """Assignment of SIDs to partition groups.

    SIDs absent from ``groups`` belong to the implicit group ``None`` and
    can talk to each other (and only to each other).  An empty spec means a
    fully connected network.
    """

    groups: dict[int, int] = field(default_factory=dict)

    @classmethod
    def split(cls, *components: Iterable[int]) -> "PartitionSpec":
        """Build a spec from explicit components, e.g. ``split({0,1}, {2,3})``."""
        groups: dict[int, int] = {}
        for group_id, component in enumerate(components):
            for sid in component:
                if sid in groups:
                    raise ValueError(f"SID {sid} appears in two components")
                groups[sid] = group_id
        return cls(groups=groups)

    def connected(self, a: int, b: int) -> bool:
        """True iff SIDs ``a`` and ``b`` may exchange messages."""
        return self.groups.get(a) == self.groups.get(b)


@dataclass
class NetworkStats:
    """Counters of everything the network did."""

    sent: int = 0
    delivered: int = 0
    duplicated: int = 0
    dropped_loss: int = 0
    dropped_partition: int = 0
    dropped_dead: int = 0

    @property
    def dropped(self) -> int:
        """Total messages that never reached a live endpoint."""
        return self.dropped_loss + self.dropped_partition + self.dropped_dead


LatencyModel = Callable[[random.Random], float]


@dataclass(frozen=True)
class RegionLatencyMatrix:
    """Per-region link latency: messages pay the src-region -> dst-region cost.

    The production picture this models: replicas (and coordinators) are
    deployed across geographic regions, intra-region hops are cheap and
    cross-region hops pay the WAN.  ``matrix[a][b]`` is the base latency
    from region ``a`` to region ``b``; ``regions`` maps SIDs to region
    indices (SIDs absent from the map — e.g. the negative coordinator
    SIDs — live in ``default_region``).  A cost is deterministic: the
    matrix draws nothing from the RNG.

    Instances are *per-pair* latency models: the network calls them with
    ``(rng, src, dst)`` instead of the scalar models' ``(rng)`` — the
    ``per_pair`` class attribute is the dispatch flag.
    """

    matrix: tuple[tuple[float, ...], ...]
    regions: tuple[tuple[int, int], ...] = ()
    default_region: int = 0

    #: Dispatch flag: Network passes (rng, src, dst) when this is true.
    per_pair = True

    def __post_init__(self) -> None:
        if not self.matrix:
            raise ValueError("latency matrix cannot be empty")
        size = len(self.matrix)
        for row in self.matrix:
            if len(row) != size:
                raise ValueError("latency matrix must be square")
            for value in row:
                if value < 0:
                    raise ValueError("latencies cannot be negative")
        if not 0 <= self.default_region < size:
            raise ValueError("default region out of range")
        for _sid, region in self.regions:
            if not 0 <= region < size:
                raise ValueError(f"region {region} out of range")
        # Frozen dataclass: stash the lookup dict via object.__setattr__
        # so per-message region lookups are O(1), not a linear scan.
        object.__setattr__(self, "_region_of", dict(self.regions))

    @classmethod
    def uniform(
        cls,
        regions: int,
        local: float = 1.0,
        remote: float = 10.0,
        assignment: Iterable[tuple[int, int]] = (),
    ) -> "RegionLatencyMatrix":
        """The common shape: one intra-region and one cross-region cost."""
        if regions < 1:
            raise ValueError("need at least one region")
        matrix = tuple(
            tuple(local if a == b else remote for b in range(regions))
            for a in range(regions)
        )
        return cls(matrix=matrix, regions=tuple(assignment))

    @classmethod
    def round_robin(
        cls,
        sids: Iterable[int],
        regions: int,
        local: float = 1.0,
        remote: float = 10.0,
    ) -> "RegionLatencyMatrix":
        """Assign ``sids`` to ``regions`` round-robin over a uniform matrix."""
        assignment = tuple(
            (sid, index % regions) for index, sid in enumerate(sids)
        )
        return cls.uniform(
            regions, local=local, remote=remote, assignment=assignment
        )

    def region_of(self, sid: int) -> int:
        """The region a SID is deployed in."""
        return self._region_of.get(sid, self.default_region)

    def __call__(self, rng: random.Random, src: int, dst: int) -> float:
        return self.matrix[self.region_of(src)][self.region_of(dst)]


def fixed_latency(value: float) -> LatencyModel:
    """Every message takes exactly ``value`` time units.

    The returned model carries its constant as a ``fixed_value``
    attribute so the network can recognise a deterministic, RNG-free
    latency and serve quorum fan-outs through the batched multicast
    fast path (see :meth:`Network.broadcast`).
    """
    if value < 0:
        raise ValueError("latency cannot be negative")

    def model(rng: random.Random) -> float:
        return value

    model.fixed_value = value
    return model


class Network:
    """The shared message fabric of one simulation.

    ``drop_probability`` and ``duplicate_probability`` are genuine
    probabilities over the closed interval ``[0, 1]``: 1.0 drops
    (respectively duplicates) every message, which adversarial tests use
    to model fully lossy links.  ``recorder`` receives per-message-type
    send/deliver/drop/duplicate counters when tracing is enabled.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        rng: random.Random,
        latency: LatencyModel | float = 1.0,
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        recorder: NullRecorder = NULL_RECORDER,
    ) -> None:
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")
        if not 0.0 <= duplicate_probability <= 1.0:
            raise ValueError("duplicate probability must be in [0, 1]")
        self._scheduler = scheduler
        self._recorder = recorder
        self._rng = rng
        self._latency = (
            fixed_latency(latency) if isinstance(latency, (int, float)) else latency
        )
        #: Per-pair models (RegionLatencyMatrix) receive (rng, src, dst);
        #: scalar models keep the legacy (rng) call so their RNG draw
        #: pattern — and therefore every existing stream — is unchanged.
        self._per_pair_latency = bool(getattr(self._latency, "per_pair", False))
        #: Constant link latency, when the model is deterministic and
        #: RNG-free (``fixed_latency``) — the precondition for collapsing
        #: a quorum fan-out into one batched delivery event.
        self._fixed_latency = getattr(self._latency, "fixed_value", None)
        self._drop_probability = drop_probability
        self._duplicate_probability = duplicate_probability
        self._endpoints: dict[int, Endpoint] = {}
        self._partition = PartitionSpec()
        self._liveness_epoch = 0
        #: Per-site extra loss (chaos: flaky links) and latency inflation
        #: (chaos: stragglers).  Both empty by default, and the hot path
        #: only consults them when non-empty, so configurations that never
        #: use them draw exactly the same RNG stream as before.
        self._site_drop: dict[int, float] = {}
        self._latency_factors: dict[int, float] = {}
        #: Per-(src, dst) link table: ``(connected, drop, latency_factor)``
        #: built lazily on first send over a pair and consulted with two
        #: dict probes thereafter, instead of recomputing partition
        #: membership + compound drop + compound latency factor on every
        #: send.  Invalidated wholesale whenever any input can change:
        #: liveness-epoch bumps, partition installs/heals and chaos
        #: mutations (see :meth:`_invalidate_links`).
        self._links: dict[int, dict[int, tuple[bool, float, float]]] = {}
        self.stats = NetworkStats()

    def register(self, sid: int, endpoint: Endpoint) -> None:
        """Attach an endpoint under its SID."""
        if sid in self._endpoints:
            raise ValueError(f"SID {sid} already registered")
        self._endpoints[sid] = endpoint

    def endpoint(self, sid: int) -> Endpoint:
        """Look up a registered endpoint."""
        return self._endpoints[sid]

    def coordinators(self) -> list[Endpoint]:
        """Every registered coordinator endpoint, in pool order.

        Coordinators are the negative-SID endpoints (``-1, -2, ...``);
        reconfiguration uses this to reach the whole pool so a quorum-
        system swap is group-scoped, never per-coordinator.
        """
        return [
            self._endpoints[sid]
            for sid in sorted(
                (s for s in self._endpoints if s < 0), reverse=True
            )
        ]

    @property
    def clock(self) -> Scheduler:
        """The transport-seam clock (see :mod:`repro.runtime.interfaces`).

        For the simulator backend this *is* the event scheduler — virtual
        time and the delivery engine share one heap.  It is the network's
        one time surface, so protocol code runs unchanged on transports
        whose clock is the asyncio event loop.
        """
        return self._scheduler

    # ------------------------------------------------------------------
    # liveness epochs
    # ------------------------------------------------------------------

    def current_liveness_epoch(self) -> int:
        """Counter bumped whenever any endpoint's reachability can change.

        Site crash/recovery and partition install/heal all advance it, so a
        consumer that caches a derived view of the live set (the
        coordinator's packed live mask, the lease cache) can validate the
        cache with one integer comparison instead of re-probing every
        replica.  Consumers poll it per operation through this bound
        method.
        """
        return self._liveness_epoch

    def bump_liveness_epoch(self) -> None:
        """Invalidate cached live-set views (sites call this on crash/recover)."""
        self._liveness_epoch += 1
        self._links.clear()

    def _invalidate_links(self) -> None:
        """Drop every cached link entry (a loss/latency input changed)."""
        self._links.clear()

    # ------------------------------------------------------------------
    # runtime link degradation (chaos scenarios)
    # ------------------------------------------------------------------

    def set_site_drop(self, sid: int, probability: float) -> None:
        """Extra loss on every link touching ``sid`` (0 restores it).

        Composes with the global probability as independent loss events:
        a message survives only if neither the global link, the source's
        flakiness nor the destination's flakiness eats it.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")
        if probability == 0.0:
            self._site_drop.pop(sid, None)
        else:
            self._site_drop[sid] = probability
        self._invalidate_links()

    def set_site_latency_factor(self, sid: int, factor: float) -> None:
        """Multiply latency of every message touching ``sid`` (1 restores).

        Chaos straggler sites answer everything — just ``factor`` times
        slower; factors of source and destination multiply.
        """
        if factor <= 0:
            raise ValueError("latency factor must be positive")
        if factor == 1.0:
            self._latency_factors.pop(sid, None)
        else:
            self._latency_factors[sid] = factor
        self._invalidate_links()

    def _effective_drop(self, src: int, dst: int) -> float:
        survive = 1.0 - self._drop_probability
        site_drop = self._site_drop
        if site_drop:
            survive *= 1.0 - site_drop.get(src, 0.0)
            survive *= 1.0 - site_drop.get(dst, 0.0)
        return 1.0 - survive

    def _latency_factor(self, src: int, dst: int) -> float:
        factors = self._latency_factors
        if not factors:
            return 1.0
        return factors.get(src, 1.0) * factors.get(dst, 1.0)

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------

    def set_partition(self, spec: PartitionSpec) -> None:
        """Install a partition; messages across components are dropped."""
        self._partition = spec
        self.bump_liveness_epoch()

    def heal_partition(self) -> None:
        """Remove any partition (fully connected again)."""
        self._partition = PartitionSpec()
        self.bump_liveness_epoch()

    @property
    def partitioned(self) -> bool:
        """True iff a non-trivial partition is installed."""
        return bool(self._partition.groups)

    def reachable(self, a: int, b: int) -> bool:
        """Whether SIDs ``a`` and ``b`` are in the same partition component."""
        return self._partition.connected(a, b)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Send a message; delivery (if any) happens after the link latency.

        Loss and partition checks happen at send time; the destination's
        liveness is checked at *delivery* time, so a site that crashes while
        a message is in flight silently discards it — exactly the window a
        quorum operation has to tolerate.
        """
        src = message.src
        dst = message.dst
        by_src = self._links.get(src)
        if by_src is None:
            by_src = self._links[src] = {}
        link = by_src.get(dst)
        if link is None:
            # Endpoints are never unregistered, so a cached link entry
            # proves the destination exists — the registration probe only
            # needs to run on the cache-miss path.
            if dst not in self._endpoints:
                raise KeyError(f"no endpoint registered for SID {dst}")
            link = by_src[dst] = (
                self._partition.connected(src, dst),
                self._effective_drop(src, dst),
                self._latency_factor(src, dst),
            )
        recorder = self._recorder
        self.stats.sent += 1
        if recorder.enabled:
            recorder.count("message.sent", message.type_name)
        connected, drop, factor = link
        if not connected:
            self.stats.dropped_partition += 1
            if recorder.enabled:
                recorder.count("message.dropped.partition", message.type_name)
            return
        if drop and self._rng.random() < drop:
            self.stats.dropped_loss += 1
            if recorder.enabled:
                recorder.count("message.dropped.loss", message.type_name)
            return
        # _draw_latency, inlined: one call frame per send is measurable on
        # the fabric's hottest line.
        if self._per_pair_latency:
            delay = self._latency(self._rng, src, dst) * factor
        else:
            delay = self._latency(self._rng) * factor
        scheduler = self._scheduler
        scheduler.call_later(delay, self._deliver, message)
        if (
            self._duplicate_probability
            and self._rng.random() < self._duplicate_probability
        ):
            # links may also deliver twice; protocol handlers must be
            # idempotent (timestamp-guarded writes, re-acked commits, ...)
            self.stats.duplicated += 1
            if recorder.enabled:
                recorder.count("message.duplicated", message.type_name)
            extra = delay + self._draw_latency(src, dst) * factor
            scheduler.call_later(extra, self._deliver, message)

    def _draw_latency(self, src: int, dst: int) -> float:
        if self._per_pair_latency:
            return self._latency(self._rng, src, dst)
        return self._latency(self._rng)

    def broadcast(self, messages: Iterable[Message]) -> None:
        """Send a batch of messages (the quorum fan-out entry point).

        When the fabric is in its deterministic regime — fixed RNG-free
        latency, no loss, no duplication, no chaos degradation, no
        partition, tracing off — the whole batch collapses into **one**
        scheduled event that delivers every message in send order.  This
        is behaviourally identical to per-message events: the messages
        would all carry the same delivery time and consecutive heap
        sequence numbers, so no foreign event can interleave between
        them, and no RNG is drawn on this path by construction.  Only
        the scheduler's processed-event count differs.  Any condition
        that could drop, delay or observe individual messages falls back
        to per-message :meth:`send`.
        """
        if not isinstance(messages, list):
            messages = list(messages)
        if (
            self._fixed_latency is None
            or len(messages) < 2
            or self._drop_probability
            or self._duplicate_probability
            or self._site_drop
            or self._latency_factors
            or self._partition.groups
            or self._recorder.enabled
        ):
            for message in messages:
                self.send(message)
            return
        endpoints = self._endpoints
        for message in messages:
            if message.dst not in endpoints:
                raise KeyError(
                    f"no endpoint registered for SID {message.dst}"
                )
        self.stats.sent += len(messages)
        self._scheduler.call_later(
            self._fixed_latency, self._deliver_many, messages
        )

    def _deliver_many(self, messages: list[Message]) -> None:
        """Deliver one batched fan-out (scheduled by :meth:`broadcast`).

        The batch was only scheduled because tracing was off; if it was
        toggled while the batch was in flight, fall back to the fully
        observed per-message path.  Otherwise the loop is :meth:`_deliver`
        inlined without the recorder probes — one call frame and two
        attribute chases fewer per message on the fan-out hot path.
        """
        if self._recorder.enabled:
            deliver = self._deliver
            for message in messages:
                deliver(message)
            return
        endpoints = self._endpoints
        stats = self.stats
        for message in messages:
            endpoint = endpoints.get(message.dst)
            if endpoint is None or not endpoint.up:
                stats.dropped_dead += 1
            else:
                stats.delivered += 1
                endpoint.receive(message)

    def _deliver(self, message: Message) -> None:
        endpoint = self._endpoints.get(message.dst)
        stats = self.stats
        recorder = self._recorder
        if endpoint is None or not endpoint.up:
            stats.dropped_dead += 1
            if recorder.enabled:
                recorder.count("message.dropped.dead", message.type_name)
            return
        stats.delivered += 1
        if recorder.enabled:
            recorder.count("message.delivered", message.type_name)
        endpoint.receive(message)
