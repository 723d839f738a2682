"""Centralised concurrency control (Section 2.2).

The paper assumes "each client uses a centralized concurrency control scheme
to synchronize accesses to the replicas".  This module provides that scheme:
a single lock manager granting shared (read) and exclusive (write) locks per
key, with FIFO queueing of incompatible requests.

Grants are asynchronous: a request that cannot be satisfied immediately is
queued and its callback fires (through the scheduler, to keep event ordering
deterministic) once the conflicting locks are released.  Because every
transaction in this library touches a single key, FIFO queueing is
deadlock-free, so a request waits without a timeout; and every lock
holder is a coordinator in this process, so a holder cannot die while its
locks live on.  Each operation acquires once, under a fresh ``txid``: a
transaction never re-enters or upgrades a lock it holds.
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.recorder import NULL_RECORDER, NullRecorder

if TYPE_CHECKING:  # annotation-only: the seam protocol, not a hard dep
    from repro.runtime.interfaces import Clock


class LockMode(enum.Enum):
    """Shared (read) or exclusive (write) access."""

    SHARED = "shared"
    EXCLUSIVE = "exclusive"


@dataclass(slots=True)
class _LockRequest:
    txid: int
    mode: LockMode
    callback: Callable[[bool], None]
    enqueued_at: float = 0.0


@dataclass(slots=True)
class _KeyLockState:
    holders: dict[int, LockMode] = field(default_factory=dict)
    queue: deque[_LockRequest] = field(default_factory=deque)
    #: Count of exclusive holders (0 or 1), maintained on every grant
    #: and release so compatibility is two comparisons instead
    #: of a scan over ``holders`` per acquire.
    exclusive: int = 0

    def compatible(self, mode: LockMode) -> bool:
        if not self.holders:
            return True
        if mode is LockMode.SHARED:
            return not self.exclusive
        return False


@dataclass
class LockStats:
    """Counters for observing contention."""

    granted_immediately: int = 0
    granted_after_wait: int = 0
    releases: int = 0
    #: Releases for a transaction that held nothing — a protocol bug
    #: made visible.
    spurious_releases: int = 0

    @property
    def granted(self) -> int:
        """Total granted requests."""
        return self.granted_immediately + self.granted_after_wait


class LockManager:
    """The centralised lock service shared by all clients.

    Parameters
    ----------
    scheduler:
        Any transport-seam :class:`~repro.runtime.interfaces.Clock` used
        to fire grant callbacks — the simulator's event scheduler or the
        asyncio runtime's wall clock.  Grants are always delivered
        asynchronously (``call_later(0.0, ...)``) so lock acquisition
        never recurses into the caller on either backend.
    recorder:
        Trace recorder receiving ``lock.wait`` / ``lock.hold`` scalar
        observations (simulated time units); the default no-op recorder
        skips all of it.
    """

    def __init__(
        self,
        scheduler: "Clock",
        recorder: NullRecorder = NULL_RECORDER,
    ) -> None:
        self._scheduler = scheduler
        self._recorder = recorder
        self._keys: dict[Any, _KeyLockState] = {}
        #: When each (key, txid) grant happened; only fed when tracing.
        self._granted_at: dict[tuple[Any, int], float] = {}
        self.stats = LockStats()

    def _record_grant(self, key: Any, txid: int, waited: float) -> None:
        self._recorder.observe("lock.wait", waited)
        self._granted_at[(key, txid)] = self._scheduler.now

    # ------------------------------------------------------------------
    # acquisition
    # ------------------------------------------------------------------

    def acquire(
        self,
        txid: int,
        key: Any,
        mode: LockMode,
        callback: Callable[[bool], None],
    ) -> None:
        """Request a lock; ``callback(True)`` fires when it is granted.

        A request is never denied (there is no wait timeout), so the
        callback's one argument is always ``True``; it stays for callers
        written against the ``callback(granted)`` signature.  Immediate
        grants still go through the scheduler (zero delay) so the caller's
        control flow is identical in both cases.  ``txid`` must not
        already hold the key.
        """
        # Not setdefault: that would construct (and usually discard) a
        # fresh _KeyLockState — two default_factory calls — on every
        # acquire of an existing key, which is the common case.
        state = self._keys.get(key)
        if state is None:
            state = self._keys[key] = _KeyLockState()
        if not state.queue and state.compatible(mode):
            if mode is LockMode.EXCLUSIVE:
                state.exclusive += 1
            state.holders[txid] = mode
            self.stats.granted_immediately += 1
            if self._recorder.enabled:
                self._record_grant(key, txid, 0.0)
            self._scheduler.call_later(0.0, callback, True)
            return

        request = _LockRequest(
            txid=txid, mode=mode, callback=callback,
            enqueued_at=self._scheduler.now,
        )
        state.queue.append(request)

    # ------------------------------------------------------------------
    # release
    # ------------------------------------------------------------------

    def release(self, txid: int, key: Any) -> None:
        """Release one lock and grant as many queued requests as possible.

        Releasing a lock the transaction does not hold is counted in
        ``stats.spurious_releases`` — it is always a caller bug and used
        to pass silently.
        """
        state = self._keys.get(key)
        if state is None:
            self.stats.spurious_releases += 1
            return
        released = state.holders.pop(txid, None)
        if released is None:
            self.stats.spurious_releases += 1
            return
        if released is LockMode.EXCLUSIVE:
            state.exclusive -= 1
        self.stats.releases += 1
        if self._recorder.enabled:
            granted_at = self._granted_at.pop((key, txid), None)
            if granted_at is not None:
                self._recorder.observe(
                    "lock.hold", self._scheduler.now - granted_at
                )
        # Skip the grant scan entirely when nobody waits — the common
        # case under low contention, and the scan's call frame alone is
        # visible at 20k releases per simulated run.
        if state.queue:
            self._grant_queued(key, state)
        if not state.holders and not state.queue:
            del self._keys[key]

    def _grant_queued(self, key: Any, state: _KeyLockState) -> None:
        while state.queue:
            head = state.queue[0]
            if not state.compatible(head.mode):
                return
            state.queue.popleft()
            if head.mode is LockMode.EXCLUSIVE:
                state.exclusive += 1
            state.holders[head.txid] = head.mode
            self.stats.granted_after_wait += 1
            if self._recorder.enabled:
                self._record_grant(
                    key, head.txid, self._scheduler.now - head.enqueued_at
                )
            self._scheduler.call_later(0.0, head.callback, True)
            if head.mode is LockMode.EXCLUSIVE:
                return

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def holders(self, key: Any) -> dict[int, LockMode]:
        """Current holders of a key's lock (txid -> mode)."""
        state = self._keys.get(key)
        return dict(state.holders) if state else {}

    def queue_length(self, key: Any) -> int:
        """Number of requests waiting on a key."""
        state = self._keys.get(key)
        return len(state.queue) if state else 0

    @property
    def idle(self) -> bool:
        """True iff no key has holders or queued requests.

        Group-wide quiescence belt-and-braces: a coordinator pool is
        drained only when every member is quiescent *and* the shared
        lock table is empty (a granted-but-not-yet-delivered callback
        still counts as held).
        """
        return not any(
            state.holders or state.queue for state in self._keys.values()
        )
