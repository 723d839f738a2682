"""Tree reconfiguration: the paper's "spectrum shifting" claim, online.

"Our protocol enables the shifting from one configuration into another by
just modifying the structure of the tree.  There is no need to implement a
new protocol whenever the frequencies of read and write operations change."
(Conclusion.)  The paper does not define a transition protocol, so this
module supplies the missing piece.

The subtlety is that quorums of *different* trees need not intersect: a
value written through an old-tree write quorum may be invisible to every
new-tree read quorum.  Every key is therefore re-written through write
quorums the *new* tree recognises before the switch, using an atomic
per-key **copy** operation (:meth:`QuorumCoordinator.copy_key`: one
exclusive lock covering the read and the re-write, so no client write can
interleave and be resurrected-over).

:meth:`TreeReconfigurer.reconfigure_online` never stops traffic.  It
drives a per-group epoch state machine over the whole coordinator *pool*
(every coordinator sharing the driver's lock manager)::

    STABLE ──start──▶ TRANSITION ──commit──▶ STABLE (new tree)
                          │
                          └────rollback────▶ STABLE (old tree)

Entering TRANSITION swaps every pool coordinator onto a
:class:`~repro.quorums.dual.DualQuorumSystem`: reads select quorums
intersecting *both* trees' write quorums, writes land on *both* trees'
write quorums, so the bi-coterie intersection invariant holds across the
boundary while clients keep reading and writing.  Keys are then copied
under the dual system; on success the group swaps to the new tree, on any
per-key failure it swaps back to the old one (``rolled_back=True``) — safe
in both directions because every transition-epoch write is visible to both
trees' read quorums.  Every epoch edge bumps the network liveness epoch
and flushes the lease cache, so no :class:`LeaseCache` entry or
:class:`SelectionIndex` live-set cache can leak across trees, and the
:class:`~repro.fault.invariants.InvariantChecker` (when attached) is told
about each edge so audited outcomes are attributed to their epoch.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.protocol import ArbitraryProtocol
from repro.core.tree import ArbitraryTree
from repro.quorums.dual import DualQuorumSystem
from repro.quorums.system import QuorumSystem
from repro.sim.coordinator import OperationOutcome, QuorumCoordinator

if TYPE_CHECKING:
    from repro.fault.invariants import InvariantChecker


class ReconfigStatus(enum.Enum):
    """Terminal states of a reconfiguration run."""

    SUCCESS = "success"
    READ_FAILED = "key-read-failed"
    WRITE_FAILED = "key-write-failed"
    BAD_TREE = "tree-replica-mismatch"
    IN_PROGRESS = "reconfiguration-already-running"


class EpochState(enum.Enum):
    """Where the group's epoch state machine currently stands."""

    STABLE = "stable"
    TRANSITION = "transition"


@dataclass
class ReconfigOutcome:
    """What a reconfiguration did."""

    status: ReconfigStatus
    new_tree: ArbitraryTree
    keys_migrated: int = 0
    keys_total: int = 0
    failed_key: Any = None
    started_at: float = 0.0
    finished_at: float = 0.0
    operations_used: int = 0
    #: The reconfiguration epoch this run drove (0 = never transitioned).
    epoch: int = 0
    #: True when the transition failed and the group was cleanly
    #: returned to the old tree.
    rolled_back: bool = False

    @property
    def success(self) -> bool:
        """True iff the quorum-system switch happened."""
        return self.status is ReconfigStatus.SUCCESS

    @property
    def duration(self) -> float:
        """Simulated time the migration took."""
        return self.finished_at - self.started_at


DoneCallback = Callable[[ReconfigOutcome], None]


@dataclass
class _MigrationState:
    new_tree: ArbitraryTree
    new_system: QuorumSystem
    keys: list
    on_done: DoneCallback
    outcome: ReconfigOutcome
    old_system: QuorumSystem
    index: int = 0


class TreeReconfigurer:
    """Drives tree-shape migrations for one coordinator *pool*.

    Parameters
    ----------
    coordinator:
        The driving coordinator.  The swap applies to every coordinator
        registered on the same network that shares this coordinator's
        lock manager — the whole pool, never one member (a pool peer left
        on the old tree keeps issuing old-tree writes whose quorums need
        not intersect new-tree reads).
    invariants:
        Optional :class:`~repro.fault.invariants.InvariantChecker`.  When
        attached it is notified of every epoch edge, and migration
        outcomes are audited exactly like client traffic.
    """

    def __init__(
        self,
        coordinator: QuorumCoordinator,
        invariants: "InvariantChecker | None" = None,
    ) -> None:
        self._coordinator = coordinator
        self._invariants = invariants
        self._active = False
        self._epoch = 0

    # ------------------------------------------------------------------
    # group plumbing
    # ------------------------------------------------------------------

    def group(self) -> list[QuorumCoordinator]:
        """Every pool member: coordinators sharing the driver's locks."""
        driver = self._coordinator
        return [
            peer
            for peer in driver.network.coordinators()
            if peer.locks is driver.locks
        ]

    def _swap_group(self, system: QuorumSystem) -> None:
        """Install ``system`` on every pool member and fence the caches.

        The driver builds the (possibly shared) selection index once and
        peers adopt it; the liveness-epoch bump drops every epoch-stamped
        lease and cached live set, and the lease flush is belt-and-braces
        on top (no lease granted against one tree may ever answer under
        another).
        """
        driver = self._coordinator
        driver.set_system(system)
        group = self.group()
        for peer in group:
            if peer is not driver:
                peer.set_system(system, selector=driver.selector)
        driver.network.bump_liveness_epoch()
        flushed: set[int] = set()
        for peer in group:
            cache = peer.leases
            if cache is not None and id(cache) not in flushed:
                flushed.add(id(cache))
                cache.flush()

    def _note_epoch(self, state: EpochState) -> None:
        if self._invariants is not None:
            self._invariants.note_epoch(
                self._epoch, state.value, at=self._coordinator.clock.now
            )

    # ------------------------------------------------------------------
    # the transition
    # ------------------------------------------------------------------

    def reconfigure_online(
        self,
        new_tree: ArbitraryTree,
        keys: Sequence,
        on_done: DoneCallback,
    ) -> None:
        """Migrate to ``new_tree`` with client traffic still flowing.

        ``keys`` must cover every key whose latest value matters (the
        engine's workload uses a known key space; a production system
        would scan the keyspace).  The new tree must host the same
        replica SIDs ``0..n-1`` — reconfiguration changes the *shape*,
        not the fleet (a mismatch reports ``BAD_TREE`` through
        ``on_done``, as does a second launch while one is running:
        ``IN_PROGRESS``).

        The group enters the TRANSITION epoch on a
        :class:`DualQuorumSystem` over (current, new): every client read
        intersects both trees' write quorums and every client write lands
        on both trees' write quorums, so no interleaving can violate the
        bi-coterie invariant in either the commit or the rollback
        direction.  Keys are copied under the dual system (atomic per-key
        read/re-write), then the group commits to the new tree — or rolls
        back to the old one on a per-key failure, reporting
        ``rolled_back=True`` with the failing stage's status.
        """
        now = self._coordinator.clock.now
        outcome = ReconfigOutcome(
            status=ReconfigStatus.SUCCESS,
            new_tree=new_tree,
            keys_total=len(keys),
            started_at=now,
            finished_at=now,
            epoch=self._epoch,
        )
        if self._active:
            outcome.status = ReconfigStatus.IN_PROGRESS
        elif new_tree.n != len(self._coordinator.system_universe()):
            outcome.status = ReconfigStatus.BAD_TREE
        if not outcome.success:
            on_done(outcome)
            return
        self._active = True
        old_system = self._coordinator.system
        new_system: QuorumSystem = ArbitraryProtocol(new_tree)
        self._epoch += 1
        outcome.epoch = self._epoch
        self._swap_group(DualQuorumSystem(old_system, new_system))
        self._note_epoch(EpochState.TRANSITION)
        state = _MigrationState(
            new_tree=new_tree,
            new_system=new_system,
            keys=list(keys),
            on_done=on_done,
            outcome=outcome,
            old_system=old_system,
        )
        self._migrate_next(state)

    def _migrate_next(self, state: _MigrationState) -> None:
        if state.index >= len(state.keys):
            self._finish(state)
            return
        key = state.keys[state.index]
        state.outcome.operations_used += 1
        self._coordinator.copy_key(
            key, lambda result: self._copy_done(state, key, result)
        )

    def _copy_done(
        self, state: _MigrationState, key: Any, result: OperationOutcome
    ) -> None:
        if not result.success:
            state.outcome.status = (
                ReconfigStatus.READ_FAILED
                if result.failed_stage == "read"
                else ReconfigStatus.WRITE_FAILED
            )
            state.outcome.failed_key = key
            self._finish(state)
            return
        if result.value is not None:
            # (A None value means the key was never written: nothing was
            # transferred and nothing is auditable.)
            state.outcome.keys_migrated += 1
            if self._invariants is not None:
                self._invariants.check(result)
        state.index += 1
        self._migrate_next(state)

    def _finish(self, state: _MigrationState) -> None:
        if state.outcome.success:
            self._swap_group(state.new_system)
        else:
            self._swap_group(state.old_system)
            state.outcome.rolled_back = True
        self._note_epoch(EpochState.STABLE)
        self._active = False
        state.outcome.finished_at = self._coordinator.clock.now
        state.on_done(state.outcome)
