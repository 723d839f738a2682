"""Replica sites: processing unit + storage + SID (Section 2.2).

Sites are fail-stop: while crashed they process nothing (in-flight messages
addressed to them are dropped by the network), and failures are transient —
on recovery the site resumes with its stable storage (the versioned store
and the 2PC prepare log) intact.

A site answers read/version requests directly and participates in 2PC for
writes.  The prepare log enforces write/write exclusion at the replica: a
second transaction asking to prepare a key that is already prepared (and
undecided) is refused, which keeps the site safe even if the centralised
lock manager is bypassed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.sim.messages import (
    AbortMessage,
    AckMessage,
    CommitMessage,
    DecisionRequest,
    Message,
    PrepareMessage,
    ReadReply,
    ReadRequest,
    VersionReply,
    VersionRequest,
    VoteMessage,
)
from repro.sim.replica import Timestamp, VersionedStore

if TYPE_CHECKING:
    # Annotation only: a site talks to whatever implements the transport
    # seam, and a ``repro serve`` process must not load the simulated
    # network (and through it ``repro.obs``) to annotate it.
    from repro.sim.network import Network


@dataclass
class _PreparedWrite:
    txid: int
    key: Any
    value: Any
    timestamp: Timestamp
    coordinator: int


@dataclass
class SiteStats:
    """Per-site counters used by load measurements."""

    reads_served: int = 0
    versions_served: int = 0
    prepares: int = 0
    commits: int = 0
    aborts: int = 0
    refused_prepares: int = 0
    refused_reads: int = 0
    max_queue_depth: int = 0
    crashes: int = 0
    recoveries: int = 0


class Site:
    """One replica site.

    Parameters
    ----------
    sid:
        Unique non-negative site identifier.
    network:
        The message fabric to register on.
    service_time:
        Time the processing unit spends on each message.  Zero (default)
        means infinitely fast replicas — the paper's analytical setting.
        A positive value gives each site a FIFO queue served sequentially,
        which turns *system load* into an operational quantity: the busiest
        replica's queue bounds throughput at ``1 / (load * service_time)``
        (Naor-Wool capacity).
    """

    def __init__(
        self, sid: int, network: Network, service_time: float = 0.0
    ) -> None:
        if sid < 0:
            raise ValueError("replica SIDs must be non-negative")
        if service_time < 0:
            raise ValueError("service time cannot be negative")
        self.sid = sid
        self._network = network
        #: Fail-stop liveness, a plain attribute: the network checks it on
        #: every delivery and the service loop on every message.
        self.up = True
        self._clock = network.clock
        self._service_time = service_time
        self._queue: deque[Message] = deque()
        #: The message in service (``None`` = idle).  Its completion timer
        #: carries the message itself, so a timer armed before a crash —
        #: which empties this — is recognisably stale when it fires.
        self._serving: Message | None = None
        #: When the message in service is due to complete.  The service
        #: loop paces itself against this, not against when its timer
        #: happened to fire, so a late timer delays one message instead of
        #: every message after it.
        self._due = 0.0
        self.store = VersionedStore()
        self._prepared: dict[int, _PreparedWrite] = {}
        self._prepared_keys: dict[Any, int] = {}
        self.stats = SiteStats()
        network.register(sid, self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: stop processing (storage and prepare log persist).

        Queued but unprocessed messages are lost — they lived in volatile
        memory.
        """
        if self.up:
            self.up = False
            self.stats.crashes += 1
            self._queue.clear()
            self._serving = None
            self._network.bump_liveness_epoch()

    def recover(self) -> None:
        """Transient failure over: resume with stable storage intact.

        Recovery runs the 2PC termination protocol: for every in-doubt
        prepared transaction the site asks its coordinator for the decision
        (the coordinator answers commit or, presuming abort, abort), so a
        crash between vote and decision cannot block the key forever.
        """
        if self.up:
            return
        self.up = True
        self.stats.recoveries += 1
        self._network.bump_liveness_epoch()
        for prepared in list(self._prepared.values()):
            self._network.send(
                DecisionRequest(
                    src=self.sid,
                    dst=prepared.coordinator,
                    txid=prepared.txid,
                )
            )

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------

    def receive(self, message: Message) -> None:
        """Accept one delivered message (the network checks liveness).

        With a zero service time the message is handled inline; otherwise
        it joins the FIFO queue and the processing unit works it off at one
        message per ``service_time``.
        """
        if not self.up:  # defensive: the network already filters
            return
        if self._service_time == 0.0:
            self._handle(message)
            return
        queue = self._queue
        queue.append(message)
        stats = self.stats
        depth = len(queue)
        if depth > stats.max_queue_depth:
            stats.max_queue_depth = depth
        if self._serving is None:
            self._serve_next()

    def _serve_next(self) -> None:
        """Put the head of the queue into service (the unit was idle)."""
        message = self._serving = self._queue.popleft()
        self._due = self._clock.now + self._service_time
        self._clock.call_later(
            self._service_time, self._service_done, message
        )

    def _service_done(self, message: Message) -> None:
        # _handle and _serve_next inlined: this is the saturated
        # replica's per-message hot path, and the two extra call frames
        # are measurable.  A crash mid-service drops the message and
        # parks the loop; the timer still fires, finds another message
        # (or none) in service, and must not start a second chain beside
        # the one a recovery inside the service period has begun.
        if message is not self._serving:
            return
        handler = _HANDLERS.get(message.__class__)
        if handler is None:
            raise TypeError(
                f"site {self.sid} cannot handle {type(message).__name__}"
            )
        handler(self, message)
        queue = self._queue
        if queue:
            # The next message is due one service time after this one
            # *was due*: the timer's lateness and the handler's own
            # run time come off the next delay.  A whole slot or more
            # behind, the schedule restarts from now — never a burst,
            # so the site still serves at most one message per
            # service time.  The simulator fires on time (lag is
            # exactly 0.0) and arms the very timer it always did.
            service_time = self._service_time
            now = self._clock.now
            lag = now - self._due
            if lag < service_time:
                self._due += service_time
                delay = service_time - lag
            else:
                self._due = now + service_time
                delay = service_time
            message = self._serving = queue.popleft()
            self._clock.call_later(delay, self._service_done, message)
            return
        self._serving = None

    def _handle(self, message: Message) -> None:
        handler = _HANDLERS.get(message.__class__)
        if handler is None:
            raise TypeError(f"site {self.sid} cannot handle {type(message).__name__}")
        handler(self, message)

    def _on_read(self, message: ReadRequest) -> None:
        if message.key in self._prepared_keys:
            # In doubt for this key: the stored value may be stale the
            # instant the pending commit lands, so serving it could violate
            # one-copy equivalence.  Stay silent; the coordinator retries
            # with another replica.
            self.stats.refused_reads += 1
            return
        self.stats.reads_served += 1
        entry = self.store.read(message.key)
        # Positional construction (src, dst, key, request_id, value,
        # timestamp): replies are the replica's highest-volume allocation
        # and keyword binding costs real time at this call rate.
        self._network.send(
            ReadReply(
                self.sid, message.src, message.key, message.request_id,
                entry.value, entry.timestamp,
            )
        )

    def _on_version(self, message: VersionRequest) -> None:
        if message.key in self._prepared_keys:
            self.stats.refused_reads += 1
            return
        self.stats.versions_served += 1
        # Positional: (src, dst, key, request_id, timestamp).
        self._network.send(
            VersionReply(
                self.sid, message.src, message.key, message.request_id,
                self.store.version_of(message.key),
            )
        )

    def _on_prepare(self, message: PrepareMessage) -> None:
        holder = self._prepared_keys.get(message.key)
        if holder is not None and holder != message.txid:
            self.stats.refused_prepares += 1
            self._network.send(
                VoteMessage(self.sid, message.src, message.txid, False)
            )
            return
        self.stats.prepares += 1
        self._prepared[message.txid] = _PreparedWrite(
            txid=message.txid,
            key=message.key,
            value=message.value,
            timestamp=message.timestamp,
            coordinator=message.src,
        )
        self._prepared_keys[message.key] = message.txid
        # Positional: (src, dst, txid, vote_commit, timestamp) — the
        # committed version, not the one being prepared.
        self._network.send(
            VoteMessage(
                self.sid, message.src, message.txid, True,
                self.store.version_of(message.key),
            )
        )

    def _on_commit(self, message: CommitMessage) -> None:
        prepared = self._prepared.pop(message.txid, None)
        if prepared is not None:
            self._prepared_keys.pop(prepared.key, None)
            self.store.apply_write(
                prepared.key, prepared.value, prepared.timestamp
            )
            self.stats.commits += 1
        # Always ack, even for an already-applied (retransmitted) commit —
        # the coordinator may have lost the first ack.
        self._network.send(
            AckMessage(self.sid, message.src, message.txid, True)
        )

    def _on_abort(self, message: AbortMessage) -> None:
        prepared = self._prepared.pop(message.txid, None)
        if prepared is not None:
            self._prepared_keys.pop(prepared.key, None)
        self.stats.aborts += 1
        self._network.send(
            AckMessage(self.sid, message.src, message.txid, False)
        )

    def __repr__(self) -> str:
        return f"Site(sid={self.sid}, state={'up' if self.up else 'down'})"


#: Exact-type message dispatch for :meth:`Site._handle` — one dict probe
#: instead of an isinstance chain on the replica's hottest entry point.
#: Protocol messages are never subclassed, so exact-class lookup is safe;
#: anything absent (replies, decision requests) raises just like the old
#: chain's final ``else``.
_HANDLERS = {
    ReadRequest: Site._on_read,
    VersionRequest: Site._on_version,
    PrepareMessage: Site._on_prepare,
    CommitMessage: Site._on_commit,
    AbortMessage: Site._on_abort,
}
