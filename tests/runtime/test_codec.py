"""Wire codec: every protocol message survives the frame roundtrip."""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.codec import (
    _FIELDS,
    MAX_FRAME_BYTES,
    CodecError,
    check_wire_exact,
    decode_message,
    encode_frame,
    encode_message,
    parse_frame,
    read_frame,
)
from repro.sim.messages import (
    AbortMessage,
    AckMessage,
    CommitMessage,
    DecisionRequest,
    PrepareMessage,
    ReadReply,
    ReadRequest,
    VersionReply,
    VersionRequest,
    VoteMessage,
)
from repro.sim.replica import ZERO_TIMESTAMP, Timestamp

ALL_MESSAGES = [
    ReadRequest(-1, 3, "k1", 17),
    ReadReply(3, -1, "k1", 17, "value", Timestamp(4, 8)),
    ReadReply(3, -1, "k1", 18, None, ZERO_TIMESTAMP),  # never-written key
    VersionRequest(-1, 0, "k2", 19),
    VersionReply(0, -1, "k2", 19, Timestamp(7, 9)),
    PrepareMessage(-1, 2, 101, "k2", "payload", Timestamp(8, 8)),
    VoteMessage(2, -1, 101, True, Timestamp(7, 9)),
    VoteMessage(2, -1, 102, False),
    CommitMessage(-1, 2, 101),
    AbortMessage(-1, 2, 102),
    AckMessage(2, -1, 101, True),
    DecisionRequest(4, -1, 103),
]


def _fields(message):
    names = [
        name
        for cls in reversed(type(message).__mro__)
        for name in getattr(cls, "__slots__", ())
    ]
    return {name: getattr(message, name) for name in names}


@pytest.mark.parametrize(
    "message", ALL_MESSAGES,
    ids=[f"{m.type_name}-{index}" for index, m in enumerate(ALL_MESSAGES)],
)
def test_roundtrip_every_message_type(message):
    decoded = decode_message(encode_message(message))
    assert type(decoded) is type(message)
    assert _fields(decoded) == _fields(message)


def test_timestamp_travels_as_version_sid_pair():
    """Re-pinned for the positional layout (ISSUE 13): the frame is an
    array now, so the pair is its last two elements instead of a
    ``"timestamp": [5, 2]`` entry.  What is checked is unchanged: the
    timestamp crosses the wire as (version, sid) and comes back a
    ``Timestamp`` that still orders."""
    obj = encode_message(ReadReply(3, -1, "k", 1, "v", Timestamp(5, 2)))
    assert obj == ["ReadReply", 3, -1, "k", 1, "v", 5, 2]
    decoded = decode_message(obj)
    assert decoded.timestamp == Timestamp(5, 2)
    assert decoded.timestamp.supersedes(Timestamp(4, 0))


def test_a_vote_carries_the_voters_version():
    """ISSUE 16: a vote answers the version question for its sender, so
    the frame grows by the two trailing timestamp ints (33 -> 38 B for
    the ledger's sample vote).  Callers that build a vote positionally
    without one keep working and send the zero timestamp."""
    vote = VoteMessage(2, -1, 101, True, Timestamp(6, 8))
    assert encode_message(vote) == ["VoteMessage", 2, -1, 101, True, 6, 8]
    assert decode_message(encode_message(vote)).timestamp == Timestamp(6, 8)
    legacy = VoteMessage(3, -1, 777, True)
    assert legacy.timestamp == ZERO_TIMESTAMP
    assert len(encode_frame(encode_message(legacy))) == 38
    with pytest.raises(CodecError, match="malformed"):
        decode_message(["VoteMessage", 3, -1, 777, True])  # the old frame


def test_unknown_type_rejected():
    """Re-pinned for the positional layout (ISSUE 13): the type name is
    element 0 of an array, no longer a ``"type"`` key.  Still checked:
    a type outside the ten is a ``CodecError``."""
    with pytest.raises(CodecError, match="unknown message type"):
        decode_message(["Gossip", 0, 1])


def test_malformed_frame_rejected():
    with pytest.raises(CodecError, match="malformed"):
        decode_message({"kind": "msg", "type": "ReadRequest", "src": 0})


def _feed(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def test_frame_stream_roundtrip():
    async def main():
        frames = [encode_message(message) for message in ALL_MESSAGES]
        wire = b"".join(encode_frame(frame) for frame in frames)
        reader = _feed(wire)
        seen = []
        while (frame := await read_frame(reader)) is not None:
            seen.append(frame)
        assert seen == frames

    asyncio.run(main())


def test_clean_eof_returns_none_but_torn_frame_raises():
    async def main():
        assert await read_frame(_feed(b"")) is None
        with pytest.raises(CodecError, match="length prefix"):
            await read_frame(_feed(b"\x00\x00"))
        whole = encode_frame({"kind": "hello", "sid": 1})
        with pytest.raises(CodecError, match="payload"):
            await read_frame(_feed(whole[:-1]))

    asyncio.run(main())


def test_oversized_length_prefix_rejected_before_allocation():
    async def main():
        huge = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(CodecError, match="exceeds"):
            await read_frame(_feed(huge))

    asyncio.run(main())


def test_non_object_payload_rejected():
    """Re-pinned for the positional layout (ISSUE 13): arrays are
    protocol frames now, so the payload that is neither family is a
    scalar (the old ``[]`` probe reaches ``decode_message`` and fails
    its arity check instead).  Still checked: such a payload is a
    ``CodecError`` at the frame reader."""
    async def main():
        frame = b"\x00\x00\x00\x0242"
        with pytest.raises(CodecError, match="neither object nor array"):
            await read_frame(_feed(frame))
        with pytest.raises(CodecError, match="malformed"):
            decode_message([])

    asyncio.run(main())


# -- the wire format itself ----------------------------------------------

#: What the frames were before the codec moved onto orjson: the stdlib's
#: compact encoder, ``ensure_ascii`` left on.
_STDLIB_COMPACT = json.JSONEncoder(separators=(",", ":")).encode

#: ASCII without DEL (0x7f): the one ASCII character the stdlib escapes
#: and orjson writes raw — both are valid JSON for the same string.
_ASCII = st.text(st.characters(max_codepoint=0x7E), max_size=12)
_INT64 = st.integers(-(2**63), 2**63 - 1)
_SCALAR = st.one_of(st.none(), st.booleans(), _INT64, _ASCII)


@st.composite
def _protocol_frames(draw):
    cls = draw(st.sampled_from(sorted(_FIELDS, key=lambda c: c.type_name)))
    fields = [
        Timestamp(draw(_INT64), draw(_INT64)) if name == "timestamp"
        else draw(_SCALAR)
        for name in _FIELDS[cls]
    ]
    return encode_message(cls(draw(_INT64), draw(_INT64), *fields))


_KV_VALUE = st.recursive(
    _SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(_ASCII, inner, max_size=3),
    ),
    max_leaves=6,
)
_CONTROL_FRAMES = st.one_of(
    st.fixed_dictionaries({"kind": st.just("hello"), "sid": _INT64}),
    st.fixed_dictionaries(
        {"kind": st.just("get"), "id": _INT64, "key": _ASCII}
    ),
    st.fixed_dictionaries(
        {"kind": st.just("put"), "id": _INT64, "key": _ASCII,
         "value": _KV_VALUE}
    ),
    st.fixed_dictionaries(
        {"kind": st.just("result"), "id": _INT64, "ok": st.booleans(),
         "value": _KV_VALUE, "version": st.one_of(st.none(), _INT64)}
    ),
    st.just({"kind": "stop"}),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_protocol_frames(), _CONTROL_FRAMES))
def test_frames_are_the_stdlib_compact_encoding_byte_for_byte(payload):
    """The codec moved onto orjson without changing a frame: the payload
    is what ``JSONEncoder(separators=(",", ":"))`` wrote, so anything
    that reads frames with the stdlib ``json.loads`` (the performance
    ledger's codec rows do) reads the same bytes, and ``frame_bytes``
    cannot move."""
    frame = encode_frame(payload)
    assert frame[4:] == _STDLIB_COMPACT(payload).encode("ascii")
    assert json.loads(frame[4:]) == parse_frame(frame)[0] == payload


def test_non_ascii_travels_as_raw_utf8_and_stdlib_still_reads_it():
    payload = encode_message(ReadReply(3, -1, "clé", 1, "日本", Timestamp(2, 0)))
    frame = encode_frame(payload)
    assert "clé".encode() in frame and "日本".encode() in frame
    assert len(frame) - 4 < len(_STDLIB_COMPACT(payload))  # no \u escapes
    assert json.loads(frame[4:]) == parse_frame(frame)[0] == payload


@pytest.mark.parametrize(
    "value",
    [object(), 2**64, -(2**63) - 1, {1: "v"}, "\ud800"],
    ids=["object", "int-2^64", "int-below-int64", "int-dict-key",
         "lone-surrogate"],
)
def test_an_unencodable_payload_is_a_codec_error(value):
    """A ``TypeError`` out of the encoder used to escape ``send`` — inside
    a connection's receive callback that tore the connection down."""
    with pytest.raises(CodecError, match="unencodable"):
        encode_frame(["PrepareMessage", -1, 0, 1, "k", value, 1, -1])
    with pytest.raises(CodecError):
        check_wire_exact(value)


@pytest.mark.parametrize(
    "value",
    [(1, 2), float("nan"), float("inf"), -float("inf"), ["ok", float("nan")],
     {"k": (1,)}],
    ids=["tuple", "nan", "inf", "-inf", "nested-nan", "nested-tuple"],
)
def test_a_value_the_wire_would_change_is_refused(value):
    """orjson writes these without complaint — a tuple as an array, NaN
    and ±inf as ``null`` — so only the round trip shows the change."""
    encode_frame([value])
    with pytest.raises(CodecError, match="unchanged"):
        check_wire_exact(value)


@pytest.mark.parametrize(
    "value",
    [None, True, 0, 2**64 - 1, -(2**63), 1.5, -0.0, "", "clé",
     ["a", 1, None], {"a": [1, {"b": False}]}, "k\x7f"],
)
def test_a_value_the_wire_carries_exactly_is_accepted(value):
    check_wire_exact(value)


def test_the_ascii_fast_path_still_refuses_a_lone_surrogate():
    """A ``str`` skips the round trip only when it is ASCII; a lone
    surrogate, alone or inside an otherwise ASCII key, is not."""
    check_wire_exact("plain-ascii-key")
    for value in ("\ud800", "k\udfff"):
        with pytest.raises(CodecError, match="cannot cross the wire"):
            check_wire_exact(value)
