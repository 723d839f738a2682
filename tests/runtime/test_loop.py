"""The runtime's own I/O path: :class:`SocketTransport` on both loops, and
the :class:`SelectorLoop` a ``repro serve`` child runs.

Every transport test runs twice, on asyncio's selector loop (the
coordinator's) and on :class:`SelectorLoop` (a site's), over a
``socket.socketpair()`` or a loopback TCP pair.  The test's end of the
pair is a plain socket read and written directly.
"""

import asyncio
import socket
import struct
import time

import pytest

from repro.runtime.clock import IDLE_WAIT_ITERATIONS, AsyncClock
from repro.runtime.codec import (
    decode_message,
    encode_frame,
    encode_message,
    parse_frame,
)
from repro.runtime.connection import Connection
from repro.runtime.loop import SelectorLoop, SocketTransport
from repro.runtime.siteserver import SiteServer
from repro.sim.messages import ReadReply, ReadRequest


def spin(loop, predicate, timeout=5.0):
    """Run ``loop`` until ``predicate()`` holds."""
    deadline = time.monotonic() + timeout
    if isinstance(loop, SelectorLoop):
        while not predicate():
            assert time.monotonic() < deadline, "timed out"
            loop.call_at(loop.time() + 0.005, lambda: None)  # bound the sleep
            loop._run_once()
        return

    async def wait():
        while not predicate():
            assert time.monotonic() < deadline, "timed out"
            await asyncio.sleep(0.001)

    loop.run_until_complete(wait())


@pytest.fixture(params=["asyncio", "selector"])
def loop(request):
    if request.param == "asyncio":
        loop = asyncio.SelectorEventLoop()
        yield loop
        loop.close()
    else:
        yield SelectorLoop()


class Recorder:
    """A protocol that notes every call a transport makes on it."""

    def __init__(self):
        self.transport = None
        self.data = bytearray()
        self.lost = []
        self.closing = False  # set while the test is inside close/abort

    def connection_made(self, transport):
        self.transport = transport

    def data_received(self, data):
        self.data += data

    def connection_lost(self, exc):
        assert not self.closing, "connection_lost ran inside close/abort"
        self.lost.append(exc)


def socket_pair(kind):
    """(ours, theirs): two connected sockets of ``kind``."""
    if kind == "socketpair":
        return socket.socketpair()
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        ours = socket.create_connection(listener.getsockname())
        theirs, _ = listener.accept()
    return ours, theirs


def drain(sock):
    """Whatever ``sock`` can read without blocking (b"" at EOF too)."""
    sock.setblocking(False)
    chunks = []
    try:
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    except BlockingIOError:
        pass
    return b"".join(chunks)


# ---------------------------------------------------------------------
# SocketTransport, on both loops
# ---------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["socketpair", "loopback"])
def test_a_partial_send_queues_the_tail_and_the_writer_drains_it_in_order(
    loop, kind
):
    ours, theirs = socket_pair(kind)
    ours.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    protocol = Recorder()
    transport = SocketTransport(loop, ours, protocol)
    first = bytes(range(256)) * 4096  # 1 MiB: more than the kernel takes
    second = b"after the tail"
    transport.write(first)
    queued = transport.get_write_buffer_size()
    assert 0 < queued < len(first)
    transport.write(second)  # joins the queue behind the tail
    assert transport.get_write_buffer_size() == queued + len(second)

    received = bytearray()

    def all_in():
        received.extend(drain(theirs))
        return len(received) == len(first) + len(second)

    spin(loop, all_in)
    assert received == first + second
    assert transport.get_write_buffer_size() == 0
    transport.close()
    spin(loop, lambda: protocol.lost)
    theirs.close()


@pytest.mark.parametrize("kind", ["socketpair", "loopback"])
def test_peer_eof_gives_one_connection_lost_from_the_loop(loop, kind):
    ours, theirs = socket_pair(kind)
    protocol = Recorder()
    SocketTransport(loop, ours, protocol)
    theirs.sendall(b"last words")
    theirs.close()
    spin(loop, lambda: protocol.lost)
    assert bytes(protocol.data) == b"last words"
    assert protocol.lost == [None] and protocol.transport.is_closing()
    assert ours.fileno() == -1  # closed once the protocol was told
    spin(loop, lambda: True)
    assert protocol.lost == [None]


def test_peer_reset_gives_one_connection_lost_with_the_error(loop):
    ours, theirs = socket_pair("loopback")
    protocol = Recorder()
    SocketTransport(loop, ours, protocol)
    theirs.setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
    )
    theirs.close()  # RST, not FIN
    spin(loop, lambda: protocol.lost)
    (exc,) = protocol.lost
    assert isinstance(exc, ConnectionResetError)
    protocol.transport.close()  # after the loss: nothing more happens
    spin(loop, lambda: True)
    assert len(protocol.lost) == 1


@pytest.mark.parametrize("end", ["close", "abort"])
def test_close_and_abort_report_the_loss_later_and_once(loop, end):
    ours, theirs = socket_pair("socketpair")
    protocol = Recorder()
    transport = SocketTransport(loop, ours, protocol)
    protocol.closing = True
    getattr(transport, end)()
    transport.close()
    transport.abort()
    protocol.closing = False
    assert protocol.lost == [] and transport.is_closing()
    spin(loop, lambda: protocol.lost)
    spin(loop, lambda: True)
    assert protocol.lost == [None]
    assert theirs.recv(16) == b""  # the peer sees the end
    theirs.close()


def test_close_sends_the_queued_tail_first_abort_drops_it(loop):
    for end, whole in (("close", True), ("abort", False)):
        ours, theirs = socket_pair("socketpair")
        ours.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        protocol = Recorder()
        transport = SocketTransport(loop, ours, protocol)
        payload = b"x" * (1 << 20)
        transport.write(payload)
        assert transport.get_write_buffer_size() > 0
        getattr(transport, end)()
        received = bytearray()

        def ended():
            chunk = drain(theirs)
            received.extend(chunk)
            return protocol.lost and not chunk

        spin(loop, ended)
        assert (bytes(received) == payload) is whole
        assert protocol.lost == [None]
        theirs.close()


def test_tcp_connections_do_not_wait_for_nagle(loop):
    ours, theirs = socket_pair("loopback")
    transport = SocketTransport(loop, ours, Recorder())
    assert ours.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    transport.abort()
    spin(loop, lambda: ours.fileno() == -1)
    theirs.close()


def test_a_protocol_that_raises_is_reported_and_loses_only_its_socket(loop):
    reports = []
    loop.call_exception_handler = reports.append
    broken, healthy = Recorder(), Recorder()

    def explode(data):
        raise RuntimeError("bug in the protocol")

    broken.data_received = explode
    pairs = [socket_pair("socketpair") for _ in range(2)]
    for protocol, (ours, _) in zip((broken, healthy), pairs):
        SocketTransport(loop, ours, protocol)
    for _, theirs in pairs:
        theirs.sendall(b"frame")
    spin(loop, lambda: broken.lost and healthy.data)
    (report,) = reports
    assert isinstance(report["exception"], RuntimeError)
    assert isinstance(broken.lost[0], RuntimeError)
    assert healthy.lost == [] and bytes(healthy.data) == b"frame"
    healthy.transport.close()
    spin(loop, lambda: healthy.lost)
    for _, theirs in pairs:
        theirs.close()


def test_abort_drops_the_frames_a_connection_holds_for_the_idle_flush(loop):
    """Frames queued outside a receive callback wait for the loop to go
    idle; an abort before then sends none of them."""
    ours, theirs = socket_pair("socketpair")
    lost = []
    connection = Connection(
        lambda c: None, lambda m: None, lost.append, AsyncClock(loop)
    )
    SocketTransport(loop, ours, connection)
    frame = encode_frame(encode_message(ReadRequest(-1, 0, "k", 1)))
    connection.send(frame)
    connection.send(frame)
    connection.abort()
    spin(loop, lambda: lost)
    spin(loop, lambda: True)
    assert lost == [connection] and connection.is_closing()
    assert drain(theirs) == b""
    theirs.close()


def test_a_frame_sent_from_a_timer_leaves_when_the_loop_goes_idle(loop):
    ours, theirs = socket_pair("loopback")
    clock = AsyncClock(loop)
    lost = []
    connection = Connection(lambda c: None, lambda m: None, lost.append, clock)
    SocketTransport(loop, ours, connection)
    frame = encode_frame(encode_message(ReadRequest(-1, 0, "k", 1)))
    clock.call_later(0.01, connection.send, frame)
    received = bytearray()

    def arrived():
        received.extend(drain(theirs))
        return len(received) >= len(frame)

    spin(loop, arrived)
    assert received == frame and not connection._pending
    connection.close()
    spin(loop, lambda: lost)
    theirs.close()


# ---------------------------------------------------------------------
# SelectorLoop
# ---------------------------------------------------------------------


def run_once(loop):
    """One iteration that does not sleep."""
    loop.call_soon(lambda: None)
    loop._run_once()


def test_equal_deadline_timers_fire_in_scheduling_order():
    loop = SelectorLoop()
    fired = []
    when = loop.time() + 0.02
    for name in "abcde":
        loop.call_at(when, fired.append, name)
    loop.call_at(when - 0.01, fired.append, "earlier")
    cancelled = loop.call_at(when, fired.append, "cancelled")
    cancelled.cancel()
    while len(fired) < 6:
        loop._run_once()
    assert fired == ["earlier", "a", "b", "c", "d", "e"]
    assert loop.time() + loop._clock_resolution > when  # never early


def test_call_soon_is_fifo_and_a_callback_queued_by_one_waits_an_iteration():
    loop = SelectorLoop()
    ran = []

    def first():
        ran.append("first")
        loop.call_soon(ran.append, "queued by first")

    loop.call_soon(first)
    loop.call_soon(ran.append, "second")
    loop.call_soon(ran.append, "third")
    loop._run_once()
    assert ran == ["first", "second", "third"]
    loop._run_once()
    assert ran[-1] == "queued by first"


def test_a_raising_callback_is_reported_and_the_loop_keeps_serving(capsys):
    loop = SelectorLoop()
    ran = []

    def explode():
        raise ValueError("boom in a callback")

    loop.call_soon(explode)
    loop.call_soon(ran.append, "after")
    loop._run_once()
    assert ran == ["after"]
    report = capsys.readouterr().err
    assert "Exception in callback" in report
    assert "ValueError: boom in a callback" in report

    ours, theirs = socket.socketpair()  # still serving sockets
    protocol = Recorder()
    SocketTransport(loop, ours, protocol)
    theirs.sendall(b"still here")
    spin(loop, lambda: protocol.data)
    assert bytes(protocol.data) == b"still here"
    theirs.close()
    spin(loop, lambda: protocol.lost)


def test_keyboard_interrupt_leaves_the_loop():
    loop = SelectorLoop()

    def interrupt():
        raise KeyboardInterrupt

    loop.call_soon(interrupt)
    with pytest.raises(KeyboardInterrupt):
        loop.run_forever()


def test_removing_a_reader_stops_a_callback_already_queued():
    loop = SelectorLoop()
    a, b = socket.socketpair()
    c, d = socket.socketpair()
    ran = []

    def on_a():
        ran.append("a")
        loop.remove_reader(c.fileno())

    loop.add_reader(a.fileno(), on_a)
    loop.add_reader(c.fileno(), ran.append, "c")
    b.sendall(b"1")
    d.sendall(b"1")
    run_once(loop)  # both are ready; whichever runs first removes c
    assert ran in (["a"], ["c", "a"])
    assert not loop.remove_reader(c.fileno())
    assert loop.remove_reader(a.fileno())
    for sock in (a, b, c, d):
        sock.close()


def test_the_idle_batch_waits_for_a_busy_selector_loop_to_run_dry():
    loop = SelectorLoop()
    clock = AsyncClock(loop)
    ran = []
    clock.call_when_idle(lambda: ran.append("idle"))

    def busy(left):
        ran.append(left)
        if left:
            loop.call_soon(busy, left - 1)

    loop.call_soon(busy, 3)
    for _ in range(5):
        loop._run_once()
    assert ran == [3, 2, 1, 0, "idle"]


def test_the_idle_batch_runs_within_the_cap_on_a_loop_that_never_runs_dry():
    loop = SelectorLoop()
    clock = AsyncClock(loop)
    ran = []
    clock.call_when_idle(lambda: ran.append(iterations))

    def spin_forever():
        loop.call_soon(spin_forever)

    loop.call_soon(spin_forever)
    iterations = 0
    while not ran:
        iterations += 1
        loop._run_once()
    assert ran == [IDLE_WAIT_ITERATIONS + 1]


def test_clock_timers_and_cancels_run_on_the_selector_loop():
    loop = SelectorLoop()
    clock = AsyncClock(loop)
    fired = []
    clock.call_later(0.002, fired.append, "late")
    handle = clock.schedule(0.001, fired.append, "cancelled")
    clock.call_later(0.0, fired.append, "now")
    clock.schedule(0.001, fired.append, "early")
    handle.cancel()
    while len(fired) < 3:
        loop._run_once()
    assert fired == ["now", "early", "late"]


def test_a_site_server_serves_on_the_selector_loop_until_closed():
    """What ``serve_site`` runs, in process: listen, accept, answer,
    close; the peer sees its reply and then the end."""
    loop = SelectorLoop()
    server = SiteServer(0)
    server.listen(loop)
    peer = socket.create_connection(("127.0.0.1", server.port))
    peer.sendall(
        encode_frame({"kind": "hello", "sid": -1})
        + encode_frame(encode_message(ReadRequest(-1, 0, "k", 9)))
    )
    received = bytearray()

    def answered():
        received.extend(drain(peer))
        hello, end = parse_frame(bytes(received))
        return hello is not None and parse_frame(bytes(received), end)[0]

    spin(loop, answered)
    hello, end = parse_frame(bytes(received))
    reply = decode_message(parse_frame(bytes(received), end)[0])
    assert hello == {"kind": "hello", "sid": 0}
    assert type(reply) is ReadReply and reply.request_id == 9
    (accepted,) = server._connections
    nodelay = accepted._transport._sock.getsockopt(
        socket.IPPROTO_TCP, socket.TCP_NODELAY
    )
    assert nodelay  # the site's replies do not wait for Nagle either
    server.close()
    spin(loop, lambda: not server._connections)
    peer.setblocking(True)
    assert peer.recv(16) == b""
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", server.port)).close()
    peer.close()
