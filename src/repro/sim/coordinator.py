"""Quorum operation coordinator: executes reads and writes over the network.

The coordinator turns the abstract quorum rules into the message-level
protocol of Section 2.2:

* **read(key)** — take a shared lock at the centralised lock manager,
  assemble a read quorum from live replicas, fetch every member's
  value+timestamp, and return the value whose timestamp has the highest
  version number and lowest SID;
* **write(key, value)** — take an exclusive lock, obtain the highest
  version number from a read quorum and increment it (Section 3.2.2),
  assemble a write quorum, and run two-phase commit (prepare/vote then
  commit/abort) across its members.  The version round and the prepare
  overlap: the prepare leaves at the successor of the coordinator's
  version floor for the key (of ``ZERO_TIMESTAMP`` for a key it has
  never written) while the read quorum's members outside the write
  quorum are asked for their versions, the voters report theirs on
  their votes, and nothing commits until the whole read quorum has
  confirmed the guess — two round trips; a wrong guess costs one aborted
  round and a second prepare above what the read quorum reported.

Failures are transient and *detectable* (Section 2.2), so quorums are
chosen among live replicas; replicas that crash between selection and
delivery simply never answer, the attempt times out, and the coordinator
retries with a fresh quorum up to ``max_attempts`` times.  Every completed
operation is reported as an :class:`OperationOutcome`.

The coordinator is protocol-agnostic and runs the protocol only: *which*
live quorum an operation uses — the active
:class:`~repro.quorums.system.QuorumSystem`, packed index or structural
selector, the live view, suspect avoidance — is
:class:`~repro.quorums.selection.QuorumChooser`'s decision, and the
coordinator asks it ``choose("read")`` / ``choose("write")``.

Optional **read leases** (``leases=LeaseCache(...)``) sit in front of
the protocol and leave its RNG/event streams byte-identical when
disabled: a read looks its key's lease up twice, at submission and
again when its shared lock is granted, and a hit is served from the
cache without contacting any replica; see :mod:`repro.sim.leases` for
the invalidation rules.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Callable
from operator import attrgetter
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # annotation-only: repro.fault type-hints this module back
    from repro.fault.detector import SuspectList
    from repro.fault.retry import RetryPolicy
    from repro.runtime.interfaces import CancelHandle, Clock

from repro.obs.recorder import NULL_RECORDER, NullRecorder
from repro.obs.spans import STATUS_OK, SpanKind
from repro.quorums.liveness import LivenessOracle
from repro.quorums.selection import EMPTY_QUORUM, QuorumChooser, SelectionIndex
from repro.quorums.system import QuorumSystem
from repro.sim.leases import LeaseCache
from repro.sim.locks import LockManager, LockMode, LockRequest
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
from repro.sim.network import Network
from repro.sim.outcome import FailureReason, OperationOutcome
from repro.sim.replica import ZERO_TIMESTAMP, Timestamp, dominant
from repro.sim.transactions import TransactionIdSource


DoneCallback = Callable[[OperationOutcome], None]


class _Stage(enum.Enum):
    READ = "read"
    PREPARE = "prepare"
    COMMIT = "commit"


class _QueuedOp(LockRequest):
    """An operation until its lock is granted: the lock request itself
    (``txid`` is the lock token, ``callback`` the coordinator's bound-once
    ``_lock_decided``) plus what it was submitted with.  Its operation
    type and first stage follow from ``mode`` and ``copy_read``; nothing
    refers back to it, so reference counting frees it at the grant."""

    __slots__ = ("key", "value", "on_done", "started_at", "copy_read")

    def __init__(
        self, txid: int, mode: LockMode, callback: Callable[[Any], None],
        key: Any, value: Any, on_done: DoneCallback, started_at: float,
        copy_read: bool,
    ) -> None:
        self.txid, self.mode, self.callback = txid, mode, callback
        self.key, self.value, self.on_done = key, value, on_done
        self.started_at, self.copy_read = started_at, copy_read


class _OpContext:
    """Per-operation protocol state, from the lock's grant on.

    A hand-rolled slotted class rather than a slotted dataclass (a flat
    ``__init__`` is several times cheaper than the generated one), built
    from the operation's :class:`_QueuedOp` when its lock is granted.
    It holds no collections until :meth:`QuorumCoordinator._start_attempt`
    gives each attempt fresh ones — ``replies``, plus ``versions``/
    ``votes``/``acks`` for writes — and its quorums start as the shared
    :data:`~repro.quorums.selection.EMPTY_QUORUM`, which a read's
    ``version_quorum`` keeps.
    """

    __slots__ = (
        "op_type", "key", "on_done", "lock_token", "started_at", "value",
        "stage", "attempts", "request_id", "txid", "quorum",
        "version_quorum", "replies", "versions", "votes", "acks",
        "write_timestamp", "timeout_handle", "finished",
        "copy_read", "speculative", "version_members", "trace_id", "op_span",
        "attempt_span", "phase_span",
    )

    def __init__(
        self, op_type: str, key: Any, on_done: DoneCallback, lock_token: int,
        started_at: float, value: Any = None, stage: _Stage = _Stage.READ,
        copy_read: bool = False, finished: bool = False,
    ) -> None:
        self.op_type = op_type
        self.key = key
        self.on_done = on_done
        self.lock_token = lock_token
        self.started_at = started_at
        self.value = value
        self.stage = stage
        self.attempts = 0
        self.request_id = 0
        self.txid = 0
        self.quorum = EMPTY_QUORUM
        self.version_quorum = EMPTY_QUORUM
        self.replies: dict[int, ReadReply] | None = None
        self.versions: dict[int, Timestamp] | None = None
        self.votes: dict[int, bool] | None = None
        self.acks: set[int] | None = None
        self.write_timestamp: Timestamp | None = None
        self.timeout_handle: "CancelHandle | None" = None
        self.finished = finished
        # Reconfiguration copy: run a read phase under the exclusive lock
        # and re-write the dominant value, as ONE atomic operation.
        self.copy_read = copy_read
        # Overlapped write round: True from when the prepare leaves at the
        # floor's timestamp until all votes and version replies are in
        # (``version_members`` replies: the read quorum outside the write).
        self.speculative = False
        self.version_members = 0
        # Trace span ids (0 = no span; only set when a recorder is enabled).
        self.trace_id = 0
        self.op_span = 0
        self.attempt_span = 0
        self.phase_span = 0


def _reply_sort_key(reply: ReadReply) -> tuple[int, int]:
    """Dominance order for read replies (module-level: ``max`` over a
    quorum's replies runs once per completed read, and a named function
    beats allocating the equivalent lambda each time)."""
    return reply.timestamp.sort_key()


class QuorumCoordinator:
    """Client-side executor of quorum reads and 2PC writes.

    Parameters
    ----------
    sid:
        Network address of this coordinator; must be negative so it never
        collides with replica SIDs.
    network:
        The shared message fabric.
    system:
        The quorum system whose selection rules the coordinator follows
        (any :class:`~repro.quorums.system.QuorumSystem`).
    locks:
        The centralised lock manager.
    detector:
        Perfect failure detector: ``detector(sid)`` is the replica's
        liveness (Section 2.2 makes failures detectable).
    rng:
        Randomness for quorum selection (spreads load like the paper's
        uniform strategies).
    timeout:
        How long to wait for a quorum's replies before retrying.
    max_attempts:
        Total quorum attempts per operation (1 = measure pure availability).
    writer_id:
        The SID recorded inside write timestamps.
    recorder:
        Trace recorder receiving one span tree per operation (lock wait,
        quorum selection, protocol phases, timeouts, retries, deferrals).
        The default :data:`~repro.obs.recorder.NULL_RECORDER` makes every
        hook a guarded no-op.
    retry_policy:
        Optional :class:`~repro.fault.retry.RetryPolicy` governing the
        delay before each retry and before unavailability re-probes.
        ``None`` keeps the legacy shape: immediate retry after a timeout,
        one ``timeout`` after a refused vote or after finding no quorum.
    suspects:
        Optional :class:`~repro.fault.detector.SuspectList`.  When
        present, every quorum member that stays silent past a timeout is
        charged suspicion evidence, replies exonerate their sender, and
        quorum selection prefers quorums avoiding the currently
        suspected sites before falling back to blind selection.
    """

    def __init__(
        self,
        sid: int,
        network: Network,
        system: QuorumSystem,
        locks: LockManager,
        detector: LivenessOracle,
        rng: random.Random,
        timeout: float = 10.0,
        max_attempts: int = 3,
        writer_id: int = 0,
        tx_ids: TransactionIdSource | None = None,
        version_floor: dict | None = None,
        recorder: NullRecorder = NULL_RECORDER,
        liveness_epoch: Callable[[], int] | None = None,
        retry_policy: "RetryPolicy | None" = None,
        suspects: "SuspectList | None" = None,
        selector: SelectionIndex | None = None,
        leases: LeaseCache | None = None,
    ) -> None:
        if sid >= 0:
            raise ValueError("coordinator SIDs must be negative")
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if max_attempts < 1:
            raise ValueError("need at least one attempt")
        self.sid = sid
        self._network = network
        #: The transport's clock, resolved once: internal hot paths read
        #: ``self._clock.now`` directly instead of chaining through two
        #: properties (coordinator.clock -> network.clock) per probe.
        #: This is the seam that lets the same coordinator run on the
        #: simulator (virtual time) and the asyncio runtime (wall time):
        #: everything time-related below goes through this Clock, never
        #: through a simulator ``Scheduler`` reference.
        self._clock = network.clock
        self._locks = locks
        self._detector = detector
        self._timeout = timeout
        self._max_attempts = max_attempts
        self._writer_id = writer_id
        self._recorder = recorder
        # Hoisted recorder guard: the per-run recorder never flips
        # enabled mid-run, so every span/count call site branches on one
        # cached bool instead of paying a method call + attribute chain
        # to discover the no-op recorder.
        self._trace_enabled = recorder.enabled
        self._tx_ids = tx_ids or TransactionIdSource()
        self._by_request: dict[int, _OpContext] = {}
        self._by_txid: dict[int, _OpContext] = {}
        # 2PC decision log: txid -> quorum members yet to acknowledge.
        # Aborts are presumed, so only commit decisions are kept, and only
        # while some member has yet to acknowledge: a member skipped as
        # dead at completion asks on recovery (see _on_decision_request)
        # and its late ack, which finds no context, clears it (receive).
        self._decisions: dict[int, set[int]] = {}
        # The per-key version floor embodies the paper's centralised
        # concurrency-control point; multiple coordinators in one system
        # must SHARE it (pass the same dict) so versions stay monotone even
        # when a write quorum cannot see the previous write's level.
        self._version_floor: dict[Any, Timestamp] = (
            version_floor if version_floor is not None else {}
        )
        self._retry_policy = retry_policy
        self._suspects = suspects
        self._leases = leases
        # receive() dispatch: type -> (context table, message-id getter,
        # required stage, handler).  One dict probe replaces the
        # isinstance chain on the hottest coordinator entry point; only a
        # *timely* match (pending context in the right stage) exonerates
        # the sender — see receive().
        self._dispatch: dict = {
            ReadReply: (
                self._by_request, attrgetter("request_id"),
                _Stage.READ, self._on_read_reply,
            ),
            VersionReply: (
                self._by_request, attrgetter("request_id"),
                _Stage.PREPARE, self._on_version_reply,
            ),
            VoteMessage: (
                self._by_txid, attrgetter("txid"),
                _Stage.PREPARE, self._on_vote,
            ),
            AckMessage: (
                self._by_txid, attrgetter("txid"),
                _Stage.COMMIT, self._on_ack,
            ),
        }
        self._chooser = QuorumChooser(
            system, detector, rng, self._clock,
            liveness_epoch=liveness_epoch, suspects=suspects, index=selector,
        )
        # Quorum -> sorted members.  Selected quorums are flyweights (the
        # selection index materialises each one once), so fan-outs hit
        # this cache instead of re-sorting the same frozenset on every
        # phase of every operation.  Bounded by the number of distinct
        # quorums ever selected; sorted order never changes, so entries
        # survive reconfiguration unharmed.
        self._sorted_members: dict[frozenset[int], list[int]] = {}
        # Bound once: every lock request carries this.
        self._on_lock_granted = self._lock_decided
        # Lock token -> (trace id, lock-wait span) of an operation waiting
        # for its lock; only fed when tracing.
        self._lock_waits: dict[int, tuple[int, int]] = {}
        network.register(sid, self)

    #: Endpoint-protocol liveness: coordinators do not fail in this model.
    up = True

    @property
    def system(self) -> QuorumSystem:
        """The active quorum system."""
        return self._chooser.system

    @property
    def network(self) -> Network:
        """The message fabric this coordinator is registered on."""
        return self._network

    @property
    def locks(self) -> LockManager:
        """The (shared) lock manager — the pool-membership identity: two
        coordinators belong to one replica group iff they share it."""
        return self._locks

    def set_system(
        self, system: QuorumSystem, selector: SelectionIndex | None = None
    ) -> None:
        """Swap the quorum system (used by tree reconfiguration).

        ``selector`` lets a reconfigurer share one freshly built
        :class:`SelectionIndex` across a coordinator pool instead of every
        peer rebuilding identical packed tables; it must index ``system``.
        """
        self._chooser.set_system(system, selector)

    @property
    def selector(self) -> SelectionIndex | None:
        """The bitset selection index, if the active system qualifies."""
        return self._chooser.index

    @property
    def suspects(self) -> "SuspectList | None":
        """The attached failure detector (``None`` = blind selection)."""
        return self._suspects

    @property
    def leases(self) -> LeaseCache | None:
        """The attached lease cache (``None`` = every read runs a quorum)."""
        return self._leases

    def system_universe(self) -> frozenset[int]:
        """The replica SIDs the active system spans (if it reports them)."""
        universe = getattr(self.system, "universe", None)
        if universe is None:
            raise TypeError(
                f"{type(self.system).__name__} does not expose a universe"
            )
        return frozenset(universe)

    @property
    def clock(self) -> "Clock":
        """The transport-seam clock this coordinator times against."""
        return self._clock

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------

    def read(self, key: Any, on_done: DoneCallback) -> None:
        """Issue a quorum read of ``key``; ``on_done`` fires exactly once.

        A live lease short-circuits everything: no lock, no quorum, no
        network — the cached value is delivered on the next scheduler
        tick (still asynchronously, so closed-loop callers never
        recurse).
        """
        if self._leases is not None and self._serve_leased(key, on_done):
            return
        self._acquire(key, None, on_done, LockMode.SHARED, False)

    def write(self, key: Any, value: Any, on_done: DoneCallback) -> None:
        """Issue a quorum write; ``on_done`` fires exactly once."""
        self._acquire(key, value, on_done, LockMode.EXCLUSIVE, False)

    def copy_key(self, key: Any, on_done: DoneCallback) -> None:
        """Atomically re-write ``key``'s current value at a fresh version.

        The reconfiguration state-transfer primitive: one EXCLUSIVE lock
        covers both halves, so no client write can interleave between the
        read and the re-write (the split read-then-write pipeline let a
        concurrent write land in the gap and be resurrected-over at a
        higher version).  Both halves run through the active system —
        during a migration that is the dual system, so the read
        intersects both trees' writes and the re-write lands on both
        trees' write quorums.  A never-written key (dominant value
        ``None``) completes successfully without writing anything.
        """
        self._acquire(key, None, on_done, LockMode.EXCLUSIVE, True)

    # ------------------------------------------------------------------
    # read leases
    # ------------------------------------------------------------------

    def _serve_leased(self, key: Any, on_done: DoneCallback) -> bool:
        """Serve a read from the lease cache at submission; False on a miss."""
        entry = self._leases.lookup(key)
        if entry is None:
            return False
        now = self._clock.now
        outcome = OperationOutcome(
            op_type="read",
            key=key,
            success=True,
            value=entry.value,
            timestamp=entry.timestamp,
            attempts=0,
            started_at=now,
            finished_at=now,
            leased=True,
        )
        self._clock.call_later(0.0, on_done, outcome)
        return True

    # ------------------------------------------------------------------
    # trace span helpers
    # ------------------------------------------------------------------

    def _begin_phase(
        self, ctx: _OpContext, name: str, quorum_size: int, **attributes: Any
    ) -> None:
        recorder = self._recorder
        now = self._clock.now
        self._end_phase(ctx)
        recorder.event(
            ctx.trace_id, ctx.attempt_span, "quorum_select", now,
            op=ctx.op_type, stage=name, size=quorum_size,
        )
        ctx.phase_span = recorder.start_span(
            ctx.trace_id, ctx.attempt_span, f"phase/{name}", SpanKind.PHASE,
            now, op=ctx.op_type, quorum=quorum_size, **attributes,
        )

    def _end_phase(self, ctx: _OpContext, status: str = STATUS_OK) -> None:
        if ctx.phase_span:
            self._recorder.end_span(
                ctx.phase_span, self._clock.now, status=status
            )
            ctx.phase_span = 0

    def _close_attempt(self, ctx: _OpContext, status: str = STATUS_OK) -> None:
        self._end_phase(ctx, status=status)
        if ctx.attempt_span:
            self._recorder.end_span(
                ctx.attempt_span, self._clock.now, status=status
            )
            ctx.attempt_span = 0

    # ------------------------------------------------------------------
    # lock handling
    # ------------------------------------------------------------------

    def _acquire(
        self, key: Any, value: Any, on_done: DoneCallback, mode: LockMode,
        copy_read: bool,
    ) -> None:
        """Every operation starts here: open its trace, queue for its lock."""
        request = _QueuedOp(
            self._tx_ids.next_id(), mode, self._on_lock_granted, key, value,
            on_done, self._clock.now, copy_read,
        )
        if self._trace_enabled:
            recorder = self._recorder
            now = self._clock.now
            op_type = "read" if mode is LockMode.SHARED else "write"
            trace_id = recorder.start_trace(
                op_type, now, key=str(key), coordinator=self.sid
            )
            self._lock_waits[request.txid] = trace_id, recorder.start_span(
                trace_id, trace_id, "lock_wait", SpanKind.LOCK_WAIT, now,
                op=op_type, mode=mode.value,
            )
        self._locks.acquire(
            request.txid, key, mode, self._on_lock_granted, request
        )

    def _lock_decided(self, request: _QueuedOp) -> None:
        """The lock is held (a request is never denied): build the
        operation's protocol state and start it."""
        read = request.mode is LockMode.SHARED
        op_type = "read" if read else "write"
        ctx = _OpContext(
            op_type, request.key, request.on_done, request.txid,
            request.started_at, request.value,
            _Stage.READ if read or request.copy_read else _Stage.PREPARE,
            request.copy_read,
        )
        if self._trace_enabled:
            ctx.trace_id, lock_span = self._lock_waits.pop(request.txid)
            ctx.op_span = ctx.trace_id
            self._recorder.end_span(lock_span, self._clock.now)
        if read and self._leases is not None:
            # Re-check the lease now that the shared lock is held: a
            # writer queued ahead of this reader committed and re-granted
            # the lease (write-through) while we waited, so the cached
            # value is proven current *under this very lock*.  Serving it
            # here converts the hot-key read convoy — every queued reader
            # re-running a full quorum round after every write — into one
            # lease lookup per reader.
            entry = self._leases.lookup(ctx.key)
            if entry is not None:
                # No attempt ever started: the outcome's quorum is empty
                # and its attempt count 0, as for a hit at submission.
                self._finish(
                    ctx, success=True, value=entry.value,
                    timestamp=entry.timestamp, leased=True,
                )
                return
        if not read and self._leases is not None:
            # Revoke the key's lease the moment the writer owns the
            # exclusive lock — before any replica state can change — so
            # every read from here on queues behind the lock instead of
            # serving the soon-to-be-stale cached value.  The lease is
            # re-granted (write-through) only if this write commits.
            self._leases.invalidate(ctx.key)
        self._start_attempt(ctx)

    # ------------------------------------------------------------------
    # attempt lifecycle
    # ------------------------------------------------------------------

    def _start_attempt(self, ctx: _OpContext) -> None:
        if ctx.finished:
            return
        ctx.attempts += 1
        ctx.replies = {}
        if ctx.op_type != "read":
            # Fresh per attempt: stale commit acknowledgements must not
            # leak into the next attempt (a fresh attempt selects a fresh
            # quorum, and acks from an earlier one would let ``_on_ack``
            # complete the commit early).
            ctx.versions = {}
            ctx.votes = {}
            ctx.acks = set()
            ctx.speculative = False
        recorder = self._recorder
        if recorder.enabled:
            self._close_attempt(ctx)
            ctx.attempt_span = recorder.start_span(
                ctx.trace_id, ctx.op_span, "attempt", SpanKind.ATTEMPT,
                self._clock.now, op=ctx.op_type, number=ctx.attempts,
            )
        if ctx.op_type == "read" or ctx.copy_read:
            # Copy operations restart from their read phase on every
            # retry: the previous attempt's dominant value may be stale.
            self._start_read_phase(ctx)
        else:
            # Prepare at the floor's successor *while* a read quorum
            # verifies it (see _start_prepare_phase).  No read quorum
            # assemblable: the write quorum verifies alone — the paper's
            # write availability depends on W only (Section 3.2.2).
            floor = self._version_floor.get(ctx.key, ZERO_TIMESTAMP)
            ctx.write_timestamp = floor.next_version(self._writer_id)
            ctx.version_quorum = self._chooser.choose("read") or EMPTY_QUORUM
            ctx.speculative = True
            self._start_prepare_phase(ctx)

    def _defer_unavailable(self, ctx: _OpContext) -> None:
        """No quorum is currently live: report/retry after a detection delay.

        Discovering unavailability costs real time (a probe round); charging
        it here keeps the simulated clock moving, so periodic failure
        injectors and the workload stay correctly interleaved.

        The ``ctx.finished`` guard matters: a racing timeout path can
        finish the operation before a pending phase start lands here, and
        scheduling the retry callback (or recording the defer span) for a
        finished context would leak a stray event past the operation's
        closed root span.
        """
        if ctx.finished:
            return
        self._cancel_timeout(ctx)
        delay = self._timeout
        if self._retry_policy is not None:
            policy_delay = self._retry_policy.unavailable_delay(ctx.attempts)
            if policy_delay is not None:
                delay = policy_delay
        recorder = self._recorder
        if recorder.enabled:
            now = self._clock.now
            span = recorder.start_span(
                ctx.trace_id, ctx.attempt_span or ctx.op_span,
                "unavailable_defer", SpanKind.DEFER, now, op=ctx.op_type,
            )
            recorder.end_span(
                span, now + delay,
                status=FailureReason.UNAVAILABLE.value,
            )
        self._clock.call_later(delay, self._retry_unavailable, ctx)

    def _retry_unavailable(self, ctx: _OpContext) -> None:
        self._retry_or_fail(ctx, FailureReason.UNAVAILABLE)

    def _retry_or_fail(self, ctx: _OpContext, reason: FailureReason) -> None:
        if ctx.finished:
            return
        if self._trace_enabled:
            self._close_attempt(ctx, status=reason.value)
        if ctx.attempts >= self._max_attempts:
            self._finish(ctx, success=False, reason=reason)
            return
        if self._recorder.enabled:
            self._recorder.event(
                ctx.trace_id, ctx.op_span, "retry", self._clock.now,
                op=ctx.op_type, reason=reason.value, attempt=ctx.attempts,
            )
        # The unavailability path already charged its delay in
        # _defer_unavailable; every other failure consults the retry
        # policy for a backoff before the next attempt.  With no policy a
        # refused vote waits one timeout, as finding no quorum does: the
        # refusing site holds a prepare its doubt tick clears only after
        # one or two timeouts, and an immediate retry meets it again.
        delay = 0.0
        if reason is not FailureReason.UNAVAILABLE:
            if self._retry_policy is not None:
                delay = self._retry_policy.retry_delay(ctx.attempts)
            elif reason is FailureReason.VOTE_REFUSED:
                delay = self._timeout
        if delay <= 0.0:
            self._start_attempt(ctx)
            return
        if self._recorder.enabled:
            now = self._clock.now
            span = self._recorder.start_span(
                ctx.trace_id, ctx.op_span, "backoff", SpanKind.DEFER, now,
                op=ctx.op_type, attempt=ctx.attempts,
            )
            self._recorder.end_span(span, now + delay)
        self._clock.call_later(delay, self._start_attempt, ctx)

    def _arm_timeout(self, ctx: _OpContext) -> None:
        handle = ctx.timeout_handle
        if handle is not None:  # _cancel_timeout, inlined (armed per phase)
            handle.cancel()
        # A tuple argument instead of a closure: the timeout is armed once
        # per protocol phase, and (ctx, attempt, stage) pins which phase
        # it guards so a late firing after a retry is recognisably stale.
        ctx.timeout_handle = self._clock.schedule(
            self._timeout, self._on_timeout, (ctx, ctx.attempts, ctx.stage)
        )

    def _cancel_timeout(self, ctx: _OpContext) -> None:
        if ctx.timeout_handle is not None:
            ctx.timeout_handle.cancel()
            ctx.timeout_handle = None

    @staticmethod
    def _pending_members(ctx: _OpContext, stage: _Stage) -> set[int]:
        """Quorum members that have stayed silent in ``stage`` so far."""
        if stage is _Stage.READ:
            return set(ctx.quorum) - ctx.replies.keys()
        if stage is _Stage.PREPARE:
            pending = set(ctx.quorum) - ctx.votes.keys()
            if ctx.speculative:
                pending |= set(ctx.version_quorum) - ctx.versions.keys()
            return pending
        return set(ctx.quorum) - ctx.acks

    def _on_timeout(self, armed: tuple[_OpContext, int, _Stage]) -> None:
        ctx, attempt, stage = armed
        if ctx.finished or ctx.attempts != attempt or ctx.stage is not stage:
            return
        if self._recorder.enabled:
            self._recorder.event(
                ctx.trace_id, ctx.attempt_span or ctx.op_span, "timeout",
                self._clock.now, op=ctx.op_type, stage=stage.value,
                attempt=attempt,
            )
        if self._suspects is not None and stage is not _Stage.COMMIT:
            # Members that never answered within the timeout window are the
            # detector's evidence source: crashed sites are already excluded
            # from future selections by the liveness oracle, but stragglers
            # and flaky links look exactly like this.
            self._suspects.record_timeout(
                sorted(self._pending_members(ctx, stage)), self._clock.now
            )
        if stage is _Stage.COMMIT:
            self._continue_commit(ctx)
            return
        self._unregister(ctx)
        if stage is _Stage.PREPARE:
            self._broadcast_decision(ctx, commit=False)
        self._retry_or_fail(ctx, FailureReason.TIMEOUT)

    def _unregister(self, ctx: _OpContext) -> None:
        self._by_request.pop(ctx.request_id, None)
        self._by_txid.pop(ctx.txid, None)

    def _finish(
        self,
        ctx: _OpContext,
        success: bool,
        reason: FailureReason = FailureReason.NONE,
        value: Any = None,
        timestamp: Timestamp | None = None,
        leased: bool = False,
    ) -> None:
        if ctx.finished:
            return
        ctx.finished = True
        # _cancel_timeout + _unregister, inlined: this tail runs once per
        # operation and the two call frames are measurable at bench scale.
        handle = ctx.timeout_handle
        if handle is not None:
            handle.cancel()
            ctx.timeout_handle = None
        self._by_request.pop(ctx.request_id, None)
        self._by_txid.pop(ctx.txid, None)
        # Every path here runs under the operation's granted lock.
        self._locks.release(ctx.lock_token, ctx.key)
        if self._trace_enabled:
            recorder = self._recorder
            status = STATUS_OK if success else reason.value
            self._close_attempt(ctx, status=status)
            recorder.end_span(
                ctx.op_span, self._clock.now, status=status,
                attempts=ctx.attempts, quorum=len(ctx.quorum),
                version_quorum=len(ctx.version_quorum),
            )
        if success and self._leases is not None and not leased:
            # A completed read quorum proves the dominant value current;
            # a committed write *is* the current value (write-through).
            # Either way the key's lease can be (re)granted (a read the
            # lease itself answered proves nothing new).
            self._leases.grant(ctx.key, value, timestamp, ctx.quorum)
        outcome = OperationOutcome(
            op_type=ctx.op_type,
            key=ctx.key,
            success=success,
            value=value,
            timestamp=timestamp,
            quorum=ctx.quorum,
            version_quorum=ctx.version_quorum,
            attempts=ctx.attempts,
            started_at=ctx.started_at,
            finished_at=self._clock.now,
            reason=reason if not success else FailureReason.NONE,
            failed_stage="" if success else ctx.stage.value,
            leased=leased,
        )
        ctx.on_done(outcome)

    # ------------------------------------------------------------------
    # read phase
    # ------------------------------------------------------------------

    def _start_read_phase(self, ctx: _OpContext) -> None:
        quorum = self._chooser.choose("read")
        if quorum is None:
            self._defer_unavailable(ctx)
            return
        ctx.stage = _Stage.READ
        ctx.quorum = quorum
        if self._trace_enabled:
            self._begin_phase(ctx, "read", len(quorum))
        ctx.request_id = self._tx_ids.next_id()
        self._by_request[ctx.request_id] = ctx
        self._arm_timeout(ctx)
        sid = self.sid
        request_id = ctx.request_id
        key = ctx.key
        members = self._sorted_members.get(quorum)
        if members is None:
            members = self._sorted_members[quorum] = sorted(quorum)
        # Positional: (src, dst, key, request_id) — the fan-out's
        # allocation rate makes keyword binding measurable.
        self._network.broadcast([
            ReadRequest(sid, member, key, request_id)
            for member in members
        ])

    def _on_read_reply(self, ctx: _OpContext, message: ReadReply) -> None:
        # Completeness by count: replies are keyed by sender and can only
        # come from the current attempt's quorum (the request id routing
        # a reply here is fresh per attempt and was only ever sent to
        # quorum members; duplicates overwrite in place), so
        # ``len(replies) == len(quorum)`` iff every member answered — no
        # per-reply set materialisation needed.  Same argument for the
        # version/vote/ack tallies below (txids are fresh per attempt).
        ctx.replies[message.src] = message
        if len(ctx.replies) < len(ctx.quorum):
            return
        best = max(ctx.replies.values(), key=_reply_sort_key)
        if ctx.copy_read:
            self._copy_read_complete(ctx, best)
            return
        self._finish(
            ctx, success=True, value=best.value, timestamp=best.timestamp
        )

    def _copy_read_complete(self, ctx: _OpContext, best: ReadReply) -> None:
        """A copy operation's read half finished: re-write the value.

        The exclusive lock is still held, so the dominant value read here
        is the current value at the instant the write lands — nothing can
        commit in between.
        """
        self._cancel_timeout(ctx)
        self._end_phase(ctx)
        self._by_request.pop(ctx.request_id, None)
        if best.timestamp == ZERO_TIMESTAMP:
            # Never written: nothing to transfer (and nothing a lease or
            # the invariant audit could usefully record).  A written
            # ``None`` is a value like any other and is copied.
            self._finish(
                ctx, success=True, value=None, timestamp=best.timestamp
            )
            return
        ctx.value = best.value
        ctx.version_quorum = ctx.quorum
        ctx.write_timestamp = self._next_timestamp(ctx.key, best.timestamp)
        # Pre-stage so an unavailable write-quorum selection is reported
        # against the write half, not the already-complete read half.
        ctx.stage = _Stage.PREPARE
        self._start_prepare_phase(ctx)

    def _next_timestamp(self, key: Any, observed: Timestamp) -> Timestamp:
        """What a write stamps having observed ``observed``: one past the
        higher of it and the shared version floor."""
        floor = self._version_floor.get(key, ZERO_TIMESTAMP)
        current = observed if observed.version >= floor.version else floor
        return current.next_version(self._writer_id)

    # ------------------------------------------------------------------
    # write: 2PC
    # ------------------------------------------------------------------

    def _start_prepare_phase(self, ctx: _OpContext) -> None:
        """Prepare ``ctx.write_timestamp`` on a write quorum W.

        While ``ctx.speculative`` the round is *overlapped*: the timestamp
        is the floor's guess, not yet what the read quorum R in
        ``ctx.version_quorum`` reported, so in the same tick the members of
        R outside W are asked for their versions (those inside report
        theirs on their votes — every R meets every W) and
        :meth:`_settle_overlapped` decides once all of R ∪ W has answered.
        One round trip and |R ∩ W| messages fewer than a version round
        before the prepare, over the same quorums.
        """
        quorum = self._chooser.choose("write")
        if quorum is None:
            self._defer_unavailable(ctx)
            return
        assert ctx.write_timestamp is not None
        ctx.stage = _Stage.PREPARE
        ctx.quorum = quorum
        outside: list[int] | tuple[()] = ()
        if ctx.speculative:
            ctx.version_quorum = ctx.version_quorum or quorum
            outside = sorted(ctx.version_quorum - quorum)
            ctx.version_members = len(outside)
        if self._trace_enabled:
            attributes = {}
            if ctx.speculative:
                attributes = dict(overlapped=True, version_members=len(outside))
            self._begin_phase(ctx, "prepare", len(quorum), **attributes)
        if outside:
            ctx.request_id = self._tx_ids.next_id()
            self._by_request[ctx.request_id] = ctx
        ctx.txid = self._tx_ids.next_id()
        self._by_txid[ctx.txid] = ctx
        self._arm_timeout(ctx)
        sid = self.sid
        members = self._sorted_members.get(quorum)
        if members is None:
            members = self._sorted_members[quorum] = sorted(quorum)
        # Positional: (src, dst, txid, key, value, timestamp).
        messages: list[Message] = [
            PrepareMessage(
                sid, member, ctx.txid, ctx.key, ctx.value, ctx.write_timestamp
            )
            for member in members
        ]
        for member in outside:
            messages.append(
                VersionRequest(sid, member, ctx.key, ctx.request_id)
            )
        self._network.broadcast(messages)

    def _on_version_reply(self, ctx: _OpContext, message: VersionReply) -> None:
        ctx.versions[message.src] = message.timestamp
        self._settle_overlapped(ctx)

    def _settle_overlapped(self, ctx: _OpContext) -> None:
        """A vote or version reply of an overlapped round arrived: once
        all of R ∪ W has answered, commit if the floor's guess held."""
        if (
            len(ctx.votes) < len(ctx.quorum)
            or len(ctx.versions) < len(ctx.quorum) + ctx.version_members
        ):
            return
        ctx.speculative = False
        self._by_request.pop(ctx.request_id, None)
        observed = dominant(list(ctx.versions.values()))
        timestamp = self._next_timestamp(ctx.key, observed)
        if timestamp == ctx.write_timestamp:
            self._decide_commit(ctx)
            return
        # Someone committed past the floor (a coordinator with a floor of
        # its own, or any writer of a key this one has no floor for):
        # abort the stale txid, remember what was seen, and prepare once
        # more above it.  The aborted txid's votes must not count towards
        # the new one.
        self._cancel_timeout(ctx)
        self._by_txid.pop(ctx.txid, None)
        self._broadcast_decision(ctx, commit=False)
        ctx.votes.clear()
        ctx.versions.clear()
        self._version_floor[ctx.key] = observed
        ctx.write_timestamp = timestamp
        self._start_prepare_phase(ctx)

    def _on_vote(self, ctx: _OpContext, message: VoteMessage) -> None:
        ctx.votes[message.src] = message.vote_commit
        if not message.vote_commit:
            self._cancel_timeout(ctx)
            self._unregister(ctx)
            self._broadcast_decision(ctx, commit=False)
            self._retry_or_fail(ctx, FailureReason.VOTE_REFUSED)
            return
        if ctx.speculative:
            ctx.versions[message.src] = message.timestamp
            self._settle_overlapped(ctx)
            return
        if len(ctx.votes) < len(ctx.quorum):
            return
        self._decide_commit(ctx)

    def _decide_commit(self, ctx: _OpContext) -> None:
        # Decision reached: the write is now durable (commit logged), but the
        # exclusive lock is held until every live quorum member has applied
        # it, so no later read can observe a pre-commit value.
        self._broadcast_decision(ctx, commit=True)
        assert ctx.write_timestamp is not None
        self._version_floor[ctx.key] = ctx.write_timestamp
        ctx.stage = _Stage.COMMIT
        if self._trace_enabled:
            self._begin_phase(ctx, "commit", len(ctx.quorum))
        self._arm_timeout(ctx)

    def _on_ack(self, ctx: _OpContext, message: AckMessage) -> None:
        ctx.acks.add(message.src)
        if len(ctx.acks) >= len(ctx.quorum):
            self._complete_commit(ctx)

    def _continue_commit(self, ctx: _OpContext) -> None:
        """Commit-phase timeout: retransmit to laggards, skip the dead.

        A quorum member that crashed after voting yes will apply the write
        through the recovery termination protocol (and refuses reads of the
        key while in doubt), so the coordinator only waits for members the
        failure detector still reports live.
        """
        pending = [
            member for member in ctx.quorum - ctx.acks
            if self._detector(member)
        ]
        if not pending:
            self._complete_commit(ctx)
            return
        if self._suspects is not None:
            # Live-but-silent quorum members holding up the commit phase
            # are straggler evidence too.
            self._suspects.record_timeout(sorted(pending), self._clock.now)
        if self._recorder.enabled:
            self._recorder.event(
                ctx.trace_id, ctx.attempt_span or ctx.op_span,
                "commit_retransmit", self._clock.now, op=ctx.op_type,
                pending=len(pending),
            )
        sid = self.sid
        txid = ctx.txid
        self._network.broadcast([
            CommitMessage(sid, member, txid)
            for member in sorted(pending)
        ])
        self._arm_timeout(ctx)

    def _complete_commit(self, ctx: _OpContext) -> None:
        pending = self._decisions[ctx.txid]
        pending -= ctx.acks
        if not pending:
            del self._decisions[ctx.txid]
        self._cancel_timeout(ctx)
        self._unregister(ctx)
        self._finish(
            ctx, success=True, value=ctx.value, timestamp=ctx.write_timestamp
        )

    def _broadcast_decision(self, ctx: _OpContext, commit: bool) -> None:
        if commit:
            self._decisions[ctx.txid] = set(ctx.quorum)
        sid = self.sid
        txid = ctx.txid
        message_type = CommitMessage if commit else AbortMessage
        quorum = ctx.quorum
        members = self._sorted_members.get(quorum)
        if members is None:
            members = self._sorted_members[quorum] = sorted(quorum)
        # Positional: (src, dst, txid).
        self._network.broadcast([
            message_type(sid, member, txid)
            for member in members
        ])

    def _on_decision_request(self, message: DecisionRequest) -> None:
        """2PC termination: answer a recovered participant's in-doubt query.

        Commit while the decision is logged, abort for a transaction unknown
        here (aborts are presumed).  One still collecting votes gets no
        answer: "abort" is wrong if the rest arrive; the broadcast follows.
        """
        if message.txid in self._decisions:
            self._network.send(
                CommitMessage(src=self.sid, dst=message.src, txid=message.txid)
            )
        elif message.txid not in self._by_txid:
            self._network.send(
                AbortMessage(src=self.sid, dst=message.src, txid=message.txid)
            )

    def _forget_acked(self, message: AckMessage) -> None:
        """A member skipped at completion applied the commit: once every
        member has, the decision is forgotten."""
        pending = self._decisions.get(message.txid)
        if pending is not None:
            pending.discard(message.src)
            if not pending:
                del self._decisions[message.txid]

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------

    def receive(self, message: Message) -> None:
        """Route replies to their pending operation (stale ones are ignored).

        Only a *timely* reply — one that still finds its pending operation
        in the matching stage — exonerates the sender.  A straggler's
        answer that limps in after the attempt already timed out proves
        nothing about its current usefulness, and counting it as proof of
        life would flap the failure detector between suspicion and trust
        on every straggler round-trip.
        """
        entry = self._dispatch.get(type(message))
        if entry is None:
            if type(message) is DecisionRequest:
                # A replica asking for a past decision is running
                # recovery: it is certainly alive right now.
                if self._suspects is not None and message.src >= 0:
                    self._suspects.exonerate(message.src, self._clock.now)
                self._on_decision_request(message)
                return
            raise TypeError(
                f"coordinator cannot handle {type(message).__name__}"
            )
        table, message_id, stage, handler = entry
        ctx = table.get(message_id(message))
        if ctx is None:
            if type(message) is AckMessage and message.committed:
                self._forget_acked(message)
            return
        if ctx.stage is not stage:
            return
        if self._suspects is not None and message.src >= 0:
            self._suspects.exonerate(message.src, self._clock.now)
        handler(ctx, message)
