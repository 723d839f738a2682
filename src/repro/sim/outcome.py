"""What an operation reports when it finishes: :class:`OperationOutcome`.

Split out of :mod:`repro.sim.coordinator` (which re-exports both names)
so that consumers of outcomes — the monitor, the invariant checker, the
runtime front-end — describe what they read without the state machine
that produces it.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.sim.replica import Timestamp


class FailureReason(enum.Enum):
    """Why an operation did not succeed."""

    NONE = "none"
    UNAVAILABLE = "no-quorum-available"
    TIMEOUT = "quorum-timeout"
    VOTE_REFUSED = "participant-refused"


class OperationOutcome:
    """The result of one read or write operation.

    A hand-rolled slotted class, not a dataclass: one is allocated per
    finished operation and retained by the monitor, so the flat
    ``__init__`` and ``__slots__`` matter at throughput-bench scale.
    Value equality is field-wise, matching the old dataclass semantics
    (and, like a dataclass with ``eq=True``, instances are unhashable).
    """

    __slots__ = (
        "op_type", "key", "success", "value", "timestamp", "quorum",
        "version_quorum", "attempts", "started_at", "finished_at",
        "reason", "leased", "failed_stage",
    )

    def __init__(
        self,
        op_type: str,
        key: Any,
        success: bool,
        value: Any = None,
        timestamp: Timestamp | None = None,
        quorum: frozenset[int] = frozenset(),
        version_quorum: frozenset[int] = frozenset(),
        attempts: int = 1,
        started_at: float = 0.0,
        finished_at: float = 0.0,
        reason: FailureReason = FailureReason.NONE,
        leased: bool = False,
        failed_stage: str = "",
    ) -> None:
        self.op_type = op_type
        self.key = key
        self.success = success
        self.value = value
        self.timestamp = timestamp
        self.quorum = quorum
        self.version_quorum = version_quorum
        self.attempts = attempts
        self.started_at = started_at
        self.finished_at = finished_at
        self.reason = reason
        #: True when the read was served from the lease cache: no quorum
        #: was contacted (``quorum`` is empty, ``attempts`` is 0) and the
        #: invariant checker skips only the quorum-intersection audit.
        self.leased = leased
        #: Protocol stage the operation died in ("" on success): "read",
        #: "version", "prepare" or "commit".  Reconfiguration uses this to
        #: distinguish a copy that could not read the old tree from one
        #: that could not write the new one.
        self.failed_stage = failed_stage

    @property
    def latency(self) -> float:
        """Wall-clock (simulated) duration of the operation."""
        return self.finished_at - self.started_at

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not OperationOutcome:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"OperationOutcome({fields})"
