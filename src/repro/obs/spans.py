"""Typed trace spans: the unit of the observability layer.

A *trace* is the tree of everything one operation did: the root span is
the operation itself ("read"/"write"), its children are the lock wait and
each quorum attempt, and attempt children are the protocol phases
(READ/PREPARE/COMMIT), unavailability deferrals and point events
(timeouts, retries).  Spans carry interval timestamps in *simulated* time,
a status, and free-form attributes, so the whole measurement pipeline —
per-phase latency breakdowns, failure accounting, flame summaries — can be
rebuilt from the span stream alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class SpanKind(str, enum.Enum):
    """What a span measures."""

    #: Root span: one whole read or write operation.
    OPERATION = "operation"
    #: Time between requesting a lock and the grant/deny decision.
    LOCK_WAIT = "lock_wait"
    #: One quorum attempt (an operation retries up to ``max_attempts``).
    ATTEMPT = "attempt"
    #: One protocol phase inside an attempt (read/prepare/commit).
    PHASE = "phase"
    #: Waiting out an unavailability window before retrying.
    DEFER = "defer"
    #: A point-in-time occurrence (timeout, retry, retransmit); start == end.
    EVENT = "event"


#: Span status for a span that completed normally.
STATUS_OK = "ok"


@dataclass
class Span:
    """One timed interval inside a trace.

    ``trace_id`` is the id of the root (operation) span; the root's
    ``parent_id`` is ``None``.  ``end`` stays ``None`` while the span is
    open — a finished trace must have no open spans.
    """

    trace_id: int
    span_id: int
    parent_id: int | None
    name: str
    kind: SpanKind
    start: float
    end: float | None = None
    status: str = STATUS_OK
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in simulated time (open spans report 0)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def finished(self) -> bool:
        """Whether the span has been closed."""
        return self.end is not None

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (one JSONL record)."""
        return {
            "record": "span",
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "kind": self.kind.value,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": self.attributes,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict`."""
        return cls(
            trace_id=data["trace"],
            span_id=data["span"],
            parent_id=data["parent"],
            name=data["name"],
            kind=SpanKind(data["kind"]),
            start=data["start"],
            end=data["end"],
            status=data["status"],
            attributes=dict(data.get("attrs", {})),
        )
