"""Versioned replica storage and timestamps (Section 2.2).

The paper's timestamps consist of a *version number* and an *SID*.  A read
returns the value whose timestamp has the highest version number and, among
equal versions, the **lowest** site identifier (Section 3.2.1); a write
obtains the current highest version number and increments it by one
(Section 3.2.2).  :class:`Timestamp` encodes exactly that dominance order.
"""

from __future__ import annotations

from typing import Any


class Timestamp:
    """A (version, SID) timestamp with the paper's dominance order.

    ``a.supersedes(b)`` iff ``a`` has a strictly higher version, or an equal
    version and a strictly *lower* SID — the value a reader must prefer.
    The zero timestamp ``Timestamp(0, -1)`` predates every write.

    A slotted class with a plain ``__init__``, like the messages that
    carry it (:mod:`repro.sim.messages`): the frozen dataclass's
    generated one paid two ``object.__setattr__`` calls per timestamp,
    and every decoded reply, ``next_version`` and applied write builds
    one.  Equality, hash, ``repr`` and pickling are the dataclass's;
    there is still no ordering, and it is immutable by convention.
    """

    __slots__ = ("version", "sid")

    def __init__(self, version: int, sid: int) -> None:
        self.version = version
        self.sid = sid

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Timestamp:
            return (self.version, self.sid) == (other.version, other.sid)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.version, self.sid))

    def __repr__(self) -> str:
        return f"Timestamp(version={self.version!r}, sid={self.sid!r})"

    def __reduce__(self) -> tuple:
        return Timestamp, (self.version, self.sid)

    def supersedes(self, other: "Timestamp") -> bool:
        """True iff this timestamp should be preferred over ``other``."""
        if self.version != other.version:
            return self.version > other.version
        return self.sid < other.sid

    def sort_key(self) -> tuple[int, int]:
        """Key under which ``max`` picks the dominant timestamp."""
        return (self.version, -self.sid)

    def next_version(self, writer_sid: int) -> "Timestamp":
        """The timestamp a writer stamps after reading this one."""
        return Timestamp(self.version + 1, writer_sid)

    def __str__(self) -> str:
        return f"v{self.version}@{self.sid}"


#: The timestamp of never-written data.
ZERO_TIMESTAMP = Timestamp(0, -1)


def dominant(timestamps: list[Timestamp]) -> Timestamp:
    """The dominant timestamp of a non-empty list."""
    if not timestamps:
        raise ValueError("need at least one timestamp")
    return max(timestamps, key=Timestamp.sort_key)


class StoredValue:
    """One versioned datum held by a replica (slotted, like
    :class:`Timestamp`; equality and ``repr`` are the dataclass's, and
    like it a ``StoredValue`` is unhashable)."""

    __slots__ = ("value", "timestamp")

    def __init__(self, value: Any, timestamp: Timestamp) -> None:
        self.value = value
        self.timestamp = timestamp

    def __eq__(self, other: object) -> bool:
        if other.__class__ is StoredValue:
            return (self.value, self.timestamp) == (
                other.value, other.timestamp
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"StoredValue(value={self.value!r}, "
            f"timestamp={self.timestamp!r})"
        )

    def __reduce__(self) -> tuple:
        return StoredValue, (self.value, self.timestamp)


#: What :meth:`VersionedStore.read` returns for a key never written
#: (shared: nothing mutates a stored value).
_NEVER_WRITTEN = StoredValue(None, ZERO_TIMESTAMP)


class VersionedStore:
    """Per-site key/value storage with timestamp-guarded writes.

    Storage survives crashes (the paper's failures are transient; sites
    recover with their stable storage intact).  Writes are *monotone*: a
    value is only installed when its timestamp supersedes the stored one, so
    replayed or reordered 2PC commits cannot roll a replica backwards.
    """

    def __init__(self) -> None:
        self._data: dict[Any, StoredValue] = {}
        self._applied_writes = 0
        self._ignored_writes = 0

    def read(self, key: Any) -> StoredValue:
        """Current value+timestamp, or the zero timestamp if never written."""
        return self._data.get(key, _NEVER_WRITTEN)

    def version_of(self, key: Any) -> Timestamp:
        """Current timestamp of ``key``."""
        return self.read(key).timestamp

    def apply_write(self, key: Any, value: Any, timestamp: Timestamp) -> bool:
        """Install ``value`` iff ``timestamp`` supersedes the stored one.

        Returns True when the write was applied, False when it was stale
        and ignored.
        """
        current = self.read(key).timestamp
        if not timestamp.supersedes(current):
            self._ignored_writes += 1
            return False
        self._data[key] = StoredValue(value, timestamp)
        self._applied_writes += 1
        return True

    def keys(self) -> list:
        """All keys ever written."""
        return list(self._data)

    @property
    def applied_writes(self) -> int:
        """Number of writes installed."""
        return self._applied_writes

    @property
    def ignored_writes(self) -> int:
        """Number of stale writes rejected by the timestamp guard."""
        return self._ignored_writes

    def __len__(self) -> int:
        return len(self._data)
