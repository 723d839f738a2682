"""Wire format: protocol messages as length-prefixed JSON frames.

Each frame is a 4-byte big-endian length followed by a UTF-8 JSON
payload.  The payload is written and read by ``orjson``, one C call
each way: with the stdlib ``json`` encoder and ``loads`` the codec was
about a quarter of a site's CPU and a sixth of the coordinator's
(profiled on a 2-core x86 host), and ``orjson`` is 6–8× faster on these
frames.  The frames did not change with it.  The bytes are the ones the
stdlib's compact encoder (``separators=(",", ":")``) writes, for every
payload whose strings are ASCII other than DEL; a non-ASCII character
travels as raw UTF-8 instead of a ``\\u`` escape (shorter, and read by
any JSON parser).  JSON rather than a binary layout keeps every frame
readable by any client, the stdlib ``json.loads`` included.

Two frame families share the wire, told apart by the payload's JSON
type:

* **protocol frames** are JSON *arrays* ``[type, src, dst, *fields]`` —
  one of the ten :mod:`repro.sim.messages` classes, its fields in
  constructor order from the per-class table below.  A
  :class:`~repro.sim.replica.Timestamp` is always the last field and
  travels flattened as two trailing ints ``…, version, sid]``.  Field
  names are not carried: at 83–147 bytes a keyed object spent most of
  its encode, decode and wire bytes on the keys.
* **control frames** are JSON *objects* with a ``kind`` — connection
  handshakes (``hello``) and the KV front-end API (``get`` / ``put`` /
  ``result`` / ``stop``).  These never reach the protocol layer; the
  connection and the servers consume them directly.

:func:`parse_frame` is the one place a byte string becomes a payload:
the length cap, UTF-8, JSON and payload-type checks all live there, and
both readers — :class:`repro.runtime.connection.Connection` and the
stream helper :func:`read_frame` — go through it.

**What the wire carries.**  RFC 8259 values: ``None``, ``bool``, ``str``,
ints in [−2⁶³, 2⁶⁴), finite floats, lists, and dicts with ``str`` keys.
A tuple arrives as a list and NaN or ±inf as ``null``, so neither is
carried exactly; an int beyond 64 bits, a non-``str`` dict key and a
lone surrogate are refused when encoding, and an int beyond 64 bits
that an external KV client sends parses as a float.  :func:`encode_frame`
raises :class:`CodecError` for anything it cannot write, and
:func:`check_wire_exact` refuses anything that would not come back
equal — :class:`~repro.runtime.cluster.LocalCluster` applies it to a key
and a value before an operation takes a lock.  This is a wire
restriction, not a protocol one: the simulator backend still accepts
arbitrary Python objects.
"""

from __future__ import annotations

import asyncio
import struct
from operator import attrgetter
from typing import Any

import orjson

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
from repro.sim.replica import Timestamp

#: Hard cap on a single frame (1 MiB): a corrupt length prefix must not
#: make a reader allocate gigabytes.
MAX_FRAME_BYTES = 1 << 20

_LENGTH = struct.Struct(">I")

#: Payload fields per message class, in constructor order (after
#: ``src``/``dst``).  Order matters: decode calls the constructor
#: positionally, exactly as the coordinator/site do.  A ``timestamp``
#: field, where present, is last.
_FIELDS: dict[type, tuple[str, ...]] = {
    ReadRequest: ("key", "request_id"),
    ReadReply: ("key", "request_id", "value", "timestamp"),
    VersionRequest: ("key", "request_id"),
    VersionReply: ("key", "request_id", "timestamp"),
    PrepareMessage: ("txid", "key", "value", "timestamp"),
    VoteMessage: ("txid", "vote_commit", "timestamp"),
    CommitMessage: ("txid",),
    AbortMessage: ("txid",),
    AckMessage: ("txid", "committed"),
    DecisionRequest: ("txid",),
}


def _wire_names(fields: tuple[str, ...]) -> tuple[str, ...]:
    """Attribute paths of one frame, timestamp flattened to two ints."""
    if fields[-1] == "timestamp":
        fields = fields[:-1] + ("timestamp.version", "timestamp.sid")
    return ("type_name", "src", "dst") + fields


#: class -> one C-level call reading every frame element off a message.
_GETTERS = {cls: attrgetter(*_wire_names(f)) for cls, f in _FIELDS.items()}

#: type name -> (class, frame length, whether a timestamp trails).
_LAYOUTS = {
    cls.type_name: (cls, len(_wire_names(f)), f[-1] == "timestamp")
    for cls, f in _FIELDS.items()
}


class CodecError(ValueError):
    """Bytes that are no valid frame, or a payload the wire cannot carry."""


def encode_message(message: Message) -> list[Any]:
    """Message -> JSON-ready array ``[type, src, dst, *fields]``."""
    getter = _GETTERS.get(type(message))
    if getter is None:
        raise CodecError(f"unencodable message type {type(message).__name__}")
    return list(getter(message))


def decode_message(frame: list[Any]) -> Message:
    """JSON array -> message instance."""
    if type(frame) is not list or not frame:
        raise CodecError(f"malformed protocol frame: {frame!r}")
    type_name = frame[0]
    layout = _LAYOUTS.get(type_name) if type(type_name) is str else None
    if layout is None:
        raise CodecError(f"unknown message type {type_name!r}")
    cls, length, stamped = layout
    if len(frame) != length:
        raise CodecError(f"malformed {type_name} frame: {frame!r}")
    if stamped:
        return cls(*frame[1:-2], Timestamp(frame[-2], frame[-1]))
    return cls(*frame[1:])


def encode_frame(obj: dict[str, Any] | list[Any]) -> bytes:
    """One wire frame: length prefix + compact JSON payload."""
    try:
        payload = orjson.dumps(obj)
    except orjson.JSONEncodeError as exc:
        raise CodecError(f"unencodable frame payload: {exc}") from exc
    if len(payload) > MAX_FRAME_BYTES:
        raise CodecError(f"frame too large ({len(payload)} bytes)")
    return _LENGTH.pack(len(payload)) + payload


def parse_frame(data: bytes, start: int = 0) -> tuple[Any, int]:
    """The frame beginning at ``data[start]``, validated.

    Returns ``(payload, end)`` when the frame is complete, ``end`` being
    where the next one starts.  Returns ``(None, end)`` when ``data`` is
    too short, ``end`` being how far it must reach before asking again
    (a valid payload is an object or an array, never ``None``).  Raises
    :class:`CodecError` on a length over :data:`MAX_FRAME_BYTES` — as
    soon as the prefix is in, before any payload is buffered — and on a
    payload that is not UTF-8, not JSON, or neither object nor array.
    """
    body = start + _LENGTH.size
    if len(data) < body:
        return None, body
    (length,) = _LENGTH.unpack_from(data, start)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    end = body + length
    if len(data) < end:
        return None, end
    try:
        payload = orjson.loads(data[body:end])
    except orjson.JSONDecodeError as exc:
        raise CodecError("undecodable frame payload") from exc
    if type(payload) is not list and type(payload) is not dict:
        raise CodecError(
            f"frame payload is neither object nor array: {payload!r}"
        )
    return payload, end


def check_wire_exact(value: Any) -> None:
    """Raise :class:`CodecError` unless ``value`` crosses the wire equal."""
    try:
        exact = orjson.loads(orjson.dumps(value)) == value
    except orjson.JSONEncodeError as exc:
        raise CodecError(f"{value!r} cannot cross the wire: {exc}") from exc
    if not exact:
        raise CodecError(f"{value!r} would not cross the wire unchanged")


def write_frame(
    writer: asyncio.StreamWriter, obj: dict[str, Any] | list[Any]
) -> None:
    """Queue one frame on ``writer`` (no flush — asyncio buffers)."""
    writer.write(encode_frame(obj))


async def read_frame(
    reader: asyncio.StreamReader,
) -> dict[str, Any] | list[Any] | None:
    """Read one frame off a stream; ``None`` on clean EOF at a boundary.

    The stream-side twin of the connection's splitter, for the KV
    front-end and its clients: it reads exactly one frame's bytes, so
    the next call starts on the next frame.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise CodecError("EOF inside a frame length prefix") from exc
        return None
    _, end = parse_frame(prefix)
    try:
        payload = await reader.readexactly(end - _LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        raise CodecError("EOF inside a frame payload") from exc
    return parse_frame(prefix + payload)[0]
