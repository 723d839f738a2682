"""Typed messages exchanged between sites.

The coordinator/replica protocol is deliberately small:

* ``ReadRequest`` / ``ReadReply`` — fetch a key's value and timestamp;
* ``VersionRequest`` / ``VersionReply`` — fetch only the timestamp
  (the "obtain the highest version number" phase of a write);
* ``PrepareMessage`` / ``VoteMessage`` / ``CommitMessage`` /
  ``AbortMessage`` / ``AckMessage`` — two-phase commit for writes
  (Section 2.2: transactions with writes run 2PC across participants).

Every message carries the source and destination SIDs; clients and the
coordinator use negative SIDs so they can never collide with replicas.

Messages are hand-rolled slotted classes rather than frozen dataclasses:
they are the highest-volume allocation of the whole simulator (every
quorum round constructs one per member, both directions), and a flat
``__init__`` that assigns its slots directly constructs ~2.5x faster
than the generated dataclass one (measured: 0.6 us vs 1.5 us per
``ReadRequest``).  The classes stay immutable *by convention* — nothing
in the protocol mutates a message after construction — and each carries
its class name as the ``type_name`` attribute so the network's
per-message-type counters never pay a ``type(message).__name__`` lookup
on the hot path.
"""

from __future__ import annotations

from typing import Any

from repro.sim.replica import ZERO_TIMESTAMP, Timestamp


class Message:
    """Base class: addressing."""

    __slots__ = ("src", "dst")

    #: Class name, precomputed for per-message-type counters.
    type_name = "Message"

    def __repr__(self) -> str:
        names = [
            name
            for cls in reversed(type(self).__mro__)
            for name in getattr(cls, "__slots__", ())
        ]
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in names
        )
        return f"{type(self).__name__}({fields})"


class ReadRequest(Message):
    """Ask a replica for its current value+timestamp of ``key``."""

    __slots__ = ("key", "request_id")
    type_name = "ReadRequest"

    def __init__(
        self, src: int, dst: int, key: Any = None, request_id: int = 0
    ) -> None:
        self.src = src
        self.dst = dst
        self.key = key
        self.request_id = request_id


class ReadReply(Message):
    """A replica's value+timestamp answer to a :class:`ReadRequest`."""

    __slots__ = ("key", "request_id", "value", "timestamp")
    type_name = "ReadReply"

    def __init__(
        self,
        src: int,
        dst: int,
        key: Any = None,
        request_id: int = 0,
        value: Any = None,
        timestamp: Timestamp = ZERO_TIMESTAMP,
    ) -> None:
        self.src = src
        self.dst = dst
        self.key = key
        self.request_id = request_id
        self.value = value
        self.timestamp = timestamp


class VersionRequest(Message):
    """Ask a replica for only the timestamp of ``key``."""

    __slots__ = ("key", "request_id")
    type_name = "VersionRequest"

    def __init__(
        self, src: int, dst: int, key: Any = None, request_id: int = 0
    ) -> None:
        self.src = src
        self.dst = dst
        self.key = key
        self.request_id = request_id


class VersionReply(Message):
    """A replica's timestamp answer to a :class:`VersionRequest`."""

    __slots__ = ("key", "request_id", "timestamp")
    type_name = "VersionReply"

    def __init__(
        self,
        src: int,
        dst: int,
        key: Any = None,
        request_id: int = 0,
        timestamp: Timestamp = ZERO_TIMESTAMP,
    ) -> None:
        self.src = src
        self.dst = dst
        self.key = key
        self.request_id = request_id
        self.timestamp = timestamp


class PrepareMessage(Message):
    """2PC phase 1: ask a participant to prepare ``key := value``."""

    __slots__ = ("txid", "key", "value", "timestamp")
    type_name = "PrepareMessage"

    def __init__(
        self,
        src: int,
        dst: int,
        txid: int = 0,
        key: Any = None,
        value: Any = None,
        timestamp: Timestamp = ZERO_TIMESTAMP,
    ) -> None:
        self.src = src
        self.dst = dst
        self.txid = txid
        self.key = key
        self.value = value
        self.timestamp = timestamp


class VoteMessage(Message):
    """2PC phase 1 answer: the participant's commit vote.

    A yes-vote also carries the voter's committed ``timestamp`` of the
    key, so a write quorum answers the version question for its own
    members while it votes (the coordinator's overlapped write round).
    """

    __slots__ = ("txid", "vote_commit", "timestamp")
    type_name = "VoteMessage"

    def __init__(
        self,
        src: int,
        dst: int,
        txid: int = 0,
        vote_commit: bool = True,
        timestamp: Timestamp = ZERO_TIMESTAMP,
    ) -> None:
        self.src = src
        self.dst = dst
        self.txid = txid
        self.vote_commit = vote_commit
        self.timestamp = timestamp


class CommitMessage(Message):
    """2PC phase 2: apply the prepared write."""

    __slots__ = ("txid",)
    type_name = "CommitMessage"

    def __init__(self, src: int, dst: int, txid: int = 0) -> None:
        self.src = src
        self.dst = dst
        self.txid = txid


class AbortMessage(Message):
    """2PC phase 2: discard the prepared write."""

    __slots__ = ("txid",)
    type_name = "AbortMessage"

    def __init__(self, src: int, dst: int, txid: int = 0) -> None:
        self.src = src
        self.dst = dst
        self.txid = txid


class AckMessage(Message):
    """Participant acknowledgement of a commit/abort decision."""

    __slots__ = ("txid", "committed")
    type_name = "AckMessage"

    def __init__(
        self, src: int, dst: int, txid: int = 0, committed: bool = True
    ) -> None:
        self.src = src
        self.dst = dst
        self.txid = txid
        self.committed = committed


class DecisionRequest(Message):
    """2PC termination protocol: a recovered participant asks the
    coordinator for the outcome of an in-doubt transaction."""

    __slots__ = ("txid",)
    type_name = "DecisionRequest"

    def __init__(self, src: int, dst: int, txid: int = 0) -> None:
        self.src = src
        self.dst = dst
        self.txid = txid
