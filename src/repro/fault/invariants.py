"""Safety invariants audited on every committed operation under chaos.

Chaos scenarios are only useful if a violated guarantee is *loud*.  The
:class:`InvariantChecker` sits on the outcome stream (it wraps any
``on_outcome`` callback, composing with the monitor) and asserts, per
completed operation, the two safety properties the paper's protocol is
built around:

* **read/write quorum intersection** — every successful read's quorum
  must intersect the quorum of the latest committed write of that key
  (the bi-coterie condition of Section 3.2.3, checked empirically on
  the quorums the coordinator actually used).  Write quorums of the
  arbitrary protocol are *levels* and deliberately do not intersect
  each other — write/write safety comes from versioning, not overlap —
  so no write/write check exists;
* **version monotonicity** — committed write timestamps per key are
  strictly increasing, and a successful read never returns a timestamp
  older than the latest write committed before it (completion order is a
  valid serialisation order under the centralised lock manager).

Once a run has quiesced, :meth:`InvariantChecker.check_settled` audits
what 2PC left behind: no site may still hold a prepared write.

Violations either raise :class:`InvariantViolation` immediately
(``strict=True``, the default — chaos CI fails on first blood) or are
collected in :attr:`violations` for post-mortem inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # annotation-only: runtime imports here would close the
    # repro.fault <-> repro.sim import cycle (engine imports this module)
    from repro.sim.coordinator import OperationOutcome, QuorumCoordinator
    from repro.sim.replica import Timestamp
    from repro.sim.site import Site


class InvariantViolation(AssertionError):
    """A safety property the protocol guarantees was observed broken."""


@dataclass
class _KeyHistory:
    write_quorum: frozenset[int] | None = None
    write_timestamp: Timestamp | None = None
    highest_read: Timestamp | None = None
    #: Reconfiguration epoch the latest committed write landed in, for
    #: epoch-annotated violation messages (straddle diagnosis).
    write_epoch: int | None = None


class InvariantChecker:
    """Audits the outcome stream for quorum-intersection and version
    monotonicity violations.

    :meth:`wrap` splices it in front of an outcome callback, as
    :func:`~repro.sim.engine.outcome_sink` does on both backends.
    """

    def __init__(self, strict: bool = True) -> None:
        self._strict = strict
        self._keys: dict[Any, _KeyHistory] = {}
        #: Human-readable description of every violation observed.
        self.violations: list[str] = []
        #: Operations audited (successful reads + writes).
        self.checked = 0
        #: Reconfiguration epoch annotations: current epoch number, its
        #: state ("stable"/"transition"), and the audit counts per state —
        #: outcomes straddling an epoch boundary are where reconfiguration
        #: bugs live, so violations name the epoch they were observed in.
        self.epoch = 0
        self.epoch_state = "stable"
        self.checked_by_state: dict[str, int] = {}
        #: ``(epoch, state, simulated-time)`` transition log.
        self.epoch_log: list[tuple[int, str, float]] = []

    def note_epoch(self, epoch: int, state: str, at: float = 0.0) -> None:
        """Record a reconfiguration epoch edge the audited stream crossed.

        Called by the reconfigurer at every state-machine transition
        (stable -> transition -> stable).  Subsequent outcomes are audited
        under — and any violation is attributed to — this epoch.
        """
        self.epoch = epoch
        self.epoch_state = state
        self.epoch_log.append((epoch, state, at))

    def _violate(self, description: str) -> None:
        description = (
            f"[epoch {self.epoch}/{self.epoch_state}] {description}"
        )
        self.violations.append(description)
        if self._strict:
            raise InvariantViolation(description)

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------

    def check(self, outcome: OperationOutcome) -> None:
        """Audit one completed operation (failed ones are ignored)."""
        if not outcome.success:
            return
        self.checked += 1
        state = self.epoch_state
        self.checked_by_state[state] = self.checked_by_state.get(state, 0) + 1
        history = self._keys.get(outcome.key)
        if history is None:
            history = self._keys[outcome.key] = _KeyHistory()
        if outcome.op_type == "write":
            self._check_write(outcome, history)
        else:
            self._check_read(outcome, history)

    def _check_write(
        self, outcome: OperationOutcome, history: _KeyHistory
    ) -> None:
        if (
            outcome.timestamp is not None
            and history.write_timestamp is not None
            and outcome.timestamp.sort_key() <= history.write_timestamp.sort_key()
        ):
            self._violate(
                f"write version {outcome.timestamp} of key {outcome.key!r} "
                f"does not advance past committed {history.write_timestamp}"
            )
        history.write_quorum = outcome.quorum
        history.write_timestamp = outcome.timestamp
        history.write_epoch = self.epoch

    def _check_read(
        self, outcome: OperationOutcome, history: _KeyHistory
    ) -> None:
        # Leased reads contacted no quorum at all (their quorum is empty
        # by design), so there is nothing to intersect — but they are
        # still held to every freshness property below: a lease is
        # revoked at a conflicting write's exclusive-lock grant and
        # re-granted only at its commit, so a leased serve returning a
        # timestamp behind the latest committed write (or behind an
        # earlier read) is a genuine safety bug this audit must catch.
        if not outcome.leased and history.write_quorum is not None and not (
            outcome.quorum & history.write_quorum
        ):
            self._violate(
                f"read quorum {sorted(outcome.quorum)} of key "
                f"{outcome.key!r} does not intersect the latest committed "
                f"write quorum {sorted(history.write_quorum)} "
                f"(written in epoch {history.write_epoch})"
            )
        if outcome.timestamp is None:
            return
        if (
            history.write_timestamp is not None
            and outcome.timestamp.sort_key() < history.write_timestamp.sort_key()
        ):
            self._violate(
                f"read of key {outcome.key!r} returned stale version "
                f"{outcome.timestamp} behind committed {history.write_timestamp}"
            )
        if (
            history.highest_read is not None
            and outcome.timestamp.sort_key() < history.highest_read.sort_key()
        ):
            self._violate(
                f"reads of key {outcome.key!r} went backwards: "
                f"{outcome.timestamp} after {history.highest_read}"
            )
        history.highest_read = outcome.timestamp

    def check_settled(
        self,
        sites: Iterable[Site],
        coordinators: Iterable[QuorumCoordinator],
    ) -> int:
        """Audit a quiesced run; returns how many commits are still logged.

        Call it once every site is up, partitions are healed and the
        scheduler has drained.  A member still holding the prepare of a
        commit the coordinators log never learnt the decision, and any
        other prepare still held blocks its key for good.  A logged commit
        whose members all hold no prepare is not a violation: a member
        that applied it but lost every ack holds nothing to ask about, so
        only the coordinator still remembers the entry.
        """
        in_doubt = {
            (site.sid, txid) for site in sites for txid in site._prepared
        }
        logged = 0
        for coordinator in coordinators:
            for txid, members in coordinator._decisions.items():
                logged += 1
                for sid in sorted(members):
                    if (sid, txid) in in_doubt:
                        self._violate(
                            f"site {sid} never learnt the logged commit "
                            f"of txid {txid}"
                        )
        for sid, txid in sorted(in_doubt):
            self._violate(
                f"site {sid} still holds the prepare of txid {txid} "
                "after the run settled"
            )
        return logged

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------

    def wrap(
        self, on_outcome: Callable[[OperationOutcome], None]
    ) -> Callable[[OperationOutcome], None]:
        """An outcome callback that audits, then forwards to ``on_outcome``."""

        def audit(outcome: OperationOutcome) -> None:
            self.check(outcome)
            on_outcome(outcome)

        return audit

    @property
    def ok(self) -> bool:
        """True iff no violation has been observed."""
        return not self.violations

    def __repr__(self) -> str:
        return (
            f"InvariantChecker(checked={self.checked}, "
            f"violations={len(self.violations)})"
        )
