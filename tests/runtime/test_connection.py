"""The framed connection: splitting, the flush rule, garbage, slow peers.

Three layers of evidence, cheapest first: :class:`Connection` driven by
hand over a recording transport (hypothesis picks the frames and where
the byte stream is cut), a real :class:`SiteServer` + :class:`Site`
wired to that same recording transport (what one ``recv`` of k requests
writes back), and real sockets against an in-process server (a bad frame
or a peer that never reads costs exactly one connection).
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.clock import IDLE_WAIT_ITERATIONS, AsyncClock
from repro.runtime.codec import (
    MAX_FRAME_BYTES,
    decode_message,
    encode_frame,
    encode_message,
    parse_frame,
    read_frame,
    write_frame,
)
from repro.runtime.connection import MAX_QUEUED_BYTES, Connection
from repro.runtime.siteserver import SiteServer
from repro.runtime.transport import TcpTransport
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
from repro.sim.replica import Timestamp

HELLO = encode_frame({"kind": "hello", "sid": -1})


class RecordingTransport:
    """The slice of :class:`asyncio.Transport` a Connection touches."""

    def __init__(self):
        self.writes = []
        self.closed = False
        self.aborted = False

    def write(self, data):
        self.writes.append(bytes(data))

    def get_write_buffer_size(self):
        return 0

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True

    def abort(self):
        self.closed = self.aborted = True


def split_frames(wire):
    """Every payload of a byte string that holds only whole frames."""
    frames, position = [], 0
    while position < len(wire):
        frame, position = parse_frame(wire, position)
        assert frame is not None, "torn frame in a write"
        frames.append(frame)
    return frames


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, 30.0))


# ---------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------

sids = st.integers(-3, 12)
ints = st.integers(0, 2**40)
keys = st.text(max_size=12)
# Ints the wire carries: [-2**63, 2**64) (runtime/codec.py).
wire_ints = st.integers(-(2**63), 2**64 - 1)
values = st.one_of(st.none(), st.text(max_size=40), wire_ints, st.booleans())
stamps = st.builds(Timestamp, ints, sids)

messages = st.one_of(
    st.builds(ReadRequest, sids, sids, keys, ints),
    st.builds(ReadReply, sids, sids, keys, ints, values, stamps),
    st.builds(VersionRequest, sids, sids, keys, ints),
    st.builds(VersionReply, sids, sids, keys, ints, stamps),
    st.builds(PrepareMessage, sids, sids, ints, keys, values, stamps),
    st.builds(VoteMessage, sids, sids, ints, st.booleans()),
    st.builds(CommitMessage, sids, sids, ints),
    st.builds(AbortMessage, sids, sids, ints),
    st.builds(AckMessage, sids, sids, ints, st.booleans()),
    st.builds(DecisionRequest, sids, sids, ints),
)


def deliver(chunks):
    """Feed ``chunks`` to a fresh connection; what its owner saw."""

    async def main():
        seen = []
        connection = Connection(
            lambda c: seen.append(("hello", c.peer_sid)),
            lambda m: seen.append(encode_message(m)),
            lambda c: None,
        )
        transport = RecordingTransport()
        connection.connection_made(transport)
        for chunk in chunks:
            connection.data_received(chunk)
        return seen, transport

    return asyncio.run(main())


# ---------------------------------------------------------------------
# (a) chunking never changes what is delivered
# ---------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    batch=st.lists(messages, max_size=12),
    cuts=st.lists(st.integers(0, 4096), max_size=24),
)
def test_any_chunking_delivers_the_same_frames_in_order(batch, cuts):
    wire = HELLO + b"".join(encode_frame(encode_message(m)) for m in batch)
    edges = sorted({0, len(wire), *(cut % (len(wire) + 1) for cut in cuts)})
    chunks = [wire[a:b] for a, b in zip(edges, edges[1:])]
    whole, _ = deliver([wire])
    assert whole == [("hello", -1)] + [encode_message(m) for m in batch]
    assert deliver(chunks)[0] == whole


def test_every_byte_on_its_own_including_inside_the_length_prefix():
    batch = [
        ReadRequest(-1, 3, "k1", 17),
        ReadReply(3, -1, "k1", 17, "v", Timestamp(4, 8)),
    ]
    wire = HELLO + b"".join(encode_frame(encode_message(m)) for m in batch)
    seen, transport = deliver([wire[i:i + 1] for i in range(len(wire))])
    assert seen == [("hello", -1)] + [encode_message(m) for m in batch]
    assert not transport.closed


# ---------------------------------------------------------------------
# (b) a bad frame costs its own connection and nothing else
# ---------------------------------------------------------------------

GARBAGE = {
    "oversized-prefix": (MAX_FRAME_BYTES + 1).to_bytes(4, "big"),
    "non-utf8": b"\x00\x00\x00\x02\xff\xfe",
    "non-json": b"\x00\x00\x00\x05hello",
    "scalar-payload": b"\x00\x00\x00\x0242",
    "unknown-type": encode_frame(["Gossip", -1, 0, "k", 1]),
    "wrong-arity": encode_frame(["ReadRequest", -1, 0, "k"]),
    "empty-array": encode_frame([]),
    "unhashable-type": encode_frame([["ReadRequest"], -1, 0, "k", 1]),
    "truncated-then-eof": encode_frame(["ReadRequest", -1, 0, "k", 1])[:-3],
}


@pytest.mark.parametrize("name", sorted(GARBAGE))
def test_garbage_closes_that_connection_and_the_server_keeps_serving(name):
    async def main():
        server = SiteServer(0)
        await server.start()
        try:
            bad_reader, bad_writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            good_reader, good_writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            for sid, writer in ((-2, bad_writer), (-1, good_writer)):
                write_frame(writer, {"kind": "hello", "sid": sid})
            assert (await read_frame(bad_reader))["sid"] == 0
            assert (await read_frame(good_reader))["sid"] == 0

            # One valid request first: its answer must still arrive.
            write_frame(bad_writer, encode_message(ReadRequest(-2, 0, "k", 1)))
            bad_writer.write(GARBAGE[name])
            if name == "truncated-then-eof":
                bad_writer.write_eof()
            reply = decode_message(await read_frame(bad_reader))
            assert (reply.type_name, reply.request_id) == ("ReadReply", 1)
            assert await bad_reader.read() == b""  # the server hung up

            write_frame(good_writer, encode_message(ReadRequest(-1, 0, "k", 2)))
            reply = decode_message(await read_frame(good_reader))
            assert (reply.type_name, reply.request_id) == ("ReadReply", 2)
            assert -2 not in server._peers and -1 in server._peers
            for writer in (bad_writer, good_writer):
                writer.close()
        finally:
            await server.stop()

    run(main())


def test_first_frame_must_be_a_hello():
    for first in (
        encode_frame(encode_message(ReadRequest(-1, 0, "k", 1))),
        encode_frame({"kind": "get", "key": "k"}),
        encode_frame({"kind": "hello", "sid": "zero"}),
    ):
        seen, transport = deliver([first + HELLO])
        assert seen == [] and transport.closed


@settings(max_examples=200, deadline=None)
@given(noise=st.binary(max_size=64), tail=st.lists(messages, max_size=3))
def test_arbitrary_bytes_never_escape_the_connection(noise, tail):
    wire = HELLO + noise + b"".join(
        encode_frame(encode_message(m)) for m in tail
    )
    seen, transport = deliver([wire])  # must not raise
    assert seen[0] == ("hello", -1)
    assert transport.writes == []


# ---------------------------------------------------------------------
# (c) one write per peer per round
# ---------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 40), first_alone=st.booleans())
def test_k_requests_in_one_chunk_are_answered_in_one_write(k, first_alone):
    """A real SiteServer and Site, the socket replaced by a recorder."""

    async def main():
        server = SiteServer(0)
        await server.start()
        try:
            connection = server._accept()
            transport = RecordingTransport()
            connection.connection_made(transport)
            requests = b"".join(
                encode_frame(encode_message(ReadRequest(-1, 0, f"k{i}", i)))
                for i in range(k)
            )
            if first_alone:
                connection.data_received(HELLO)
                connection.data_received(requests)
            else:
                connection.data_received(HELLO + requests)
            # One write per recv: the greeting rides with the k answers
            # when the hello and the requests arrived together.
            writes = 1 + first_alone
            assert len(transport.writes) == writes
            greeting, *replies = split_frames(b"".join(transport.writes))
            assert greeting == {"kind": "hello", "sid": 0}
            assert [decode_message(r).request_id for r in replies] == list(
                range(k)
            )
            await asyncio.sleep(0)  # nothing was left for a later flush
            assert len(transport.writes) == writes
        finally:
            await server.stop()

    asyncio.run(main())


def test_sends_from_two_callbacks_in_one_tick_share_one_write():
    async def main():
        loop = asyncio.get_running_loop()
        connection = Connection(lambda c: None, lambda m: None, lambda c: None)
        transport = RecordingTransport()
        connection.connection_made(transport)
        frames = [
            encode_frame(encode_message(ReadRequest(-1, 0, "k", i)))
            for i in range(3)
        ]
        loop.call_soon(connection.send, frames[0])
        loop.call_soon(connection.send, frames[1])
        await asyncio.sleep(0)  # both callbacks ran, the flush has not
        assert transport.writes == []
        await asyncio.sleep(0.01)  # the loop goes idle
        assert transport.writes == [frames[0] + frames[1]]
        connection.send(frames[2])  # a later round: its own write
        await asyncio.sleep(0.01)
        assert transport.writes == [frames[0] + frames[1], frames[2]]

    asyncio.run(main())


def test_flushes_for_every_peer_share_one_idle_check():
    """Frames for two peers, all queued outside any receive callback,
    cost the loop one ``call_soon`` between them, and none of the clock's
    zero-delay drain."""

    async def main():
        loop = asyncio.get_running_loop()
        clock = AsyncClock(loop)
        transports = [RecordingTransport(), RecordingTransport()]
        connections = []
        for transport in transports:
            connection = Connection(
                lambda c: None, lambda m: None, lambda c: None, clock
            )
            connection.connection_made(transport)
            connections.append(connection)
        soon = []
        real_call_soon = loop.call_soon

        def counting_call_soon(*args, **kwargs):
            soon.append(args)
            return real_call_soon(*args, **kwargs)

        loop.call_soon = counting_call_soon
        try:
            frame = encode_frame(encode_message(ReadRequest(-1, 0, "k", 1)))
            connections[0].send(frame)
            connections[1].send(frame)
            connections[0].send(frame)
        finally:
            del loop.call_soon
        assert len(soon) == 1 and clock._ready == []
        await asyncio.sleep(0.01)
        assert [t.writes for t in transports] == [[frame + frame], [frame]]

    asyncio.run(main())


def test_frames_for_another_peer_wait_for_the_idle_loop_not_the_callback():
    """Replies produced inside A's receive callback but addressed to B
    are not A's to flush: B writes them once, when the loop goes idle."""

    async def main():
        transports = {"a": RecordingTransport(), "b": RecordingTransport()}
        b = Connection(lambda c: None, lambda m: None, lambda c: None)
        b.connection_made(transports["b"])
        a = Connection(
            lambda c: None,
            lambda m: b.send(encode_frame(encode_message(m))),
            lambda c: None,
        )
        a.connection_made(transports["a"])
        a.data_received(HELLO + b"".join(
            encode_frame(encode_message(ReadRequest(-1, 0, "k", i)))
            for i in range(5)
        ))
        assert transports["b"].writes == []
        await asyncio.sleep(0.01)
        assert len(transports["b"].writes) == 1
        assert len(split_frames(transports["b"].writes[0])) == 5
        assert transports["a"].writes == []

    asyncio.run(main())


def test_frames_from_callbacks_across_a_busy_loop_leave_in_one_write_per_peer():
    """A coordinator under load: replies keep arriving, each handled in
    its own callback and iteration, and each sends to two sites.  The
    frames wait for the round to end, one write per site."""

    async def main():
        loop = asyncio.get_running_loop()
        clock = AsyncClock(loop)
        transports = [RecordingTransport(), RecordingTransport()]
        connections = []
        for transport in transports:
            connection = Connection(
                lambda c: None, lambda m: None, lambda c: None, clock
            )
            connection.connection_made(transport)
            connections.append(connection)
        rounds = IDLE_WAIT_ITERATIONS - 2
        frames = [
            encode_frame(encode_message(ReadRequest(-1, 0, "k", i)))
            for i in range(rounds)
        ]

        def reply(index):
            for connection in connections:
                connection.send(frames[index])
            if index + 1 < rounds:
                loop.call_soon(reply, index + 1)  # the loop stays busy

        loop.call_soon(reply, 0)
        await asyncio.sleep(0.01)
        assert [t.writes for t in transports] == [[b"".join(frames)]] * 2

    asyncio.run(main())


class CountingLoop(asyncio.SelectorEventLoop):
    """An event loop that numbers its iterations."""

    iteration = 0

    def _run_once(self):
        self.iteration += 1
        super()._run_once()


def run_counting(coroutine_function):
    loop = CountingLoop()
    try:
        return loop.run_until_complete(
            asyncio.wait_for(coroutine_function(loop), 30.0)
        )
    finally:
        loop.close()


def recording_connection(loop, written):
    """A connection whose transport notes the iteration of each write."""
    transport = RecordingTransport()
    record = transport.write

    def write(data):
        record(data)
        written.append(loop.iteration)

    transport.write = write
    connection = Connection(lambda c: None, lambda m: None, lambda c: None)
    connection.connection_made(transport)
    return connection


def test_a_spinning_loop_holds_a_frame_for_at_most_the_cap():
    """``while True: await asyncio.sleep(0)`` never lets the loop go
    idle; the frame waits :data:`IDLE_WAIT_ITERATIONS` checks, no more."""

    async def main(loop):
        written = []
        connection = recording_connection(loop, written)

        async def spin():
            while True:
                await asyncio.sleep(0)

        spinner = asyncio.ensure_future(spin())
        await asyncio.sleep(0)
        sent_at = loop.iteration
        connection.send(encode_frame({"kind": "hello", "sid": -1}))
        while not written:
            await asyncio.sleep(0)
        spinner.cancel()
        return written[0] - sent_at

    waited = run_counting(main)
    assert 1 < waited <= IDLE_WAIT_ITERATIONS + 1


def test_a_lone_frame_on_an_idle_loop_leaves_on_the_next_iteration():
    """What a client task sends before it awaits its reply is written on
    the loop's next iteration, as when frames rode the clock's drain."""

    async def main(loop):
        written = []
        connection = recording_connection(loop, written)
        await asyncio.sleep(0.01)
        sent_at = loop.iteration
        connection.send(encode_frame({"kind": "hello", "sid": -1}))
        await asyncio.sleep(0.01)
        return written, sent_at

    written, sent_at = run_counting(main)
    assert written == [sent_at + 1]


# ---------------------------------------------------------------------
# a peer that stops reading
# ---------------------------------------------------------------------

BIG = "x" * (256 * 1024)


class Inbox:
    """Endpoint that hands each received message to one waiter."""

    up = True

    def __init__(self):
        self.queue = asyncio.Queue()

    def receive(self, message):
        self.queue.put_nowait(message)


def test_site_aborts_a_peer_that_says_hello_and_never_reads():
    async def main():
        server = SiteServer(0)
        await server.start()
        transport = TcpTransport(local_sid=-1)
        inbox = Inbox()
        transport.register(-1, inbox)
        try:
            await transport.connect(0, "127.0.0.1", server.port)
            transport.send(PrepareMessage(-1, 0, 1, "big", BIG, Timestamp(1, 9)))
            assert (await inbox.queue.get()).vote_commit
            transport.send(CommitMessage(-1, 0, 1))
            assert (await inbox.queue.get()).committed

            _, deaf = await asyncio.open_connection("127.0.0.1", server.port)
            write_frame(deaf, {"kind": "hello", "sid": -2})
            for index in range(2 * MAX_QUEUED_BYTES // len(BIG)):
                write_frame(deaf, encode_message(ReadRequest(-2, 0, "big", index)))
            await deaf.drain()
            while -2 in server._peers or len(server._connections) > 1:
                await asyncio.sleep(0.01)

            transport.send(ReadRequest(-1, 0, "big", 7))
            reply = await inbox.queue.get()
            assert reply.request_id == 7 and reply.value == BIG
            assert transport.stats.disconnects == 0
            deaf.close()
        finally:
            await transport.close()
            await server.stop()

    run(main())


def test_transport_counts_a_site_that_never_reads_as_a_disconnect():
    async def main():
        async def deaf_site(reader, writer):
            await read_frame(reader)  # the coordinator's hello, no more
            write_frame(writer, {"kind": "hello", "sid": 5})
            await hold.wait()
            writer.close()

        hold = asyncio.Event()
        deaf = await asyncio.start_server(deaf_site, "127.0.0.1", 0)
        server = SiteServer(0)
        await server.start()
        transport = TcpTransport(local_sid=-1)
        inbox = Inbox()
        transport.register(-1, inbox)
        try:
            await transport.connect(0, "127.0.0.1", server.port)
            await transport.connect(
                5, "127.0.0.1", deaf.sockets[0].getsockname()[1]
            )
            epoch = transport.current_liveness_epoch()
            sent = 0
            while transport.is_live(5):
                assert sent * len(BIG) < 4 * MAX_QUEUED_BYTES, "unbounded"
                transport.send(
                    PrepareMessage(-1, 5, sent, "big", BIG, Timestamp(1, 9))
                )
                sent += 1
                await asyncio.sleep(0)
            while transport.stats.disconnects == 0:
                await asyncio.sleep(0.01)
            assert transport.stats.disconnects == 1
            assert transport.current_liveness_epoch() == epoch + 1
            assert transport.live_sids() == [0]
            before = transport.stats.dropped_dead
            transport.send(ReadRequest(-1, 5, "k", 1))
            assert transport.stats.dropped_dead == before + 1

            transport.send(ReadRequest(-1, 0, "k", 9))
            assert (await inbox.queue.get()).request_id == 9
        finally:
            hold.set()
            await transport.close()
            await server.stop()
            deaf.close()
            await deaf.wait_closed()

    run(main())
