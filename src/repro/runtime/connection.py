"""One framed TCP connection — the class both ends of the wire share.

A :class:`Connection` is the protocol half of a socket: a
:class:`~repro.runtime.loop.SocketTransport` hands it each ``recv`` as it
arrives (:meth:`~Connection.data_received`) and everything else happens
in that one callback — split every complete frame (:func:`~repro.
runtime.codec.parse_frame`), run the ``hello`` handshake on the first,
decode the others and hand the messages to its owner.  No reader task,
no per-frame future, and no asyncio: the same class runs on the
coordinator's asyncio loop and on a site's
:class:`~repro.runtime.loop.SelectorLoop`.  The coordinator's
:class:`~repro.runtime.transport.TcpTransport` dials one per site; a
:class:`~repro.runtime.siteserver.SiteServer` accepts one per peer.

**The flush rule.**  Outbound frames are never written one by one.
:meth:`Connection.send` appends to a pending list, and the list leaves
in a single ``transport.write`` at the first point where nothing more
can be added to it cheaply:

* a frame sent *while this connection's own* ``data_received`` *is
  running* — a site answering the k requests of one ``recv`` — leaves
  when that callback returns: one write for k replies, in the same loop
  iteration, so a lone request is answered exactly as soon as before;
* a frame sent *from anywhere else* — another connection's callback, a
  client task, a timer — waits for the owner's clock to find the event
  loop idle (:meth:`~repro.runtime.clock.AsyncClock.call_when_idle`:
  nothing else runnable, or at most
  :data:`~repro.runtime.clock.IDLE_WAIT_ITERATIONS` loop iterations),
  and every further frame for this peer until then rides with it.  On a
  quiet loop that is the next iteration; on a busy one every reply the
  round brings in has been handled first, so each peer gets one write —
  and one wakeup — per round instead of one per callback.

Which case applies is read off the connection's own state (is its
receive callback on the stack; is the pending list empty), so there is
nothing to configure and no caller can pick the wrong one.

**Bounded.**  A peer that stops reading makes the kernel buffer, then
the transport's, then ours grow.  Once more than :data:`MAX_QUEUED_BYTES`
wait on one connection it is aborted; its owner sees an ordinary
disconnect.

A malformed frame (:class:`~repro.runtime.codec.CodecError`) closes the
connection it arrived on, after the replies to the valid frames before
it have been flushed, and touches no other connection.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.runtime.clock import AsyncClock
from repro.runtime.codec import (
    MAX_FRAME_BYTES,
    CodecError,
    decode_message,
    encode_frame,
    parse_frame,
)

if TYPE_CHECKING:
    from repro.runtime.loop import SocketTransport

#: Most bytes one connection may hold unsent (the transport's buffer
#: plus the frames pending the next flush) before it is aborted.
MAX_QUEUED_BYTES = 16 * MAX_FRAME_BYTES


class Connection:
    """Framing, handshake, decode and write coalescing for one socket.

    The owner supplies three callbacks: ``on_hello(connection)`` once
    the peer's ``hello`` has set :attr:`peer_sid` (close the connection
    there to refuse the peer), ``on_message(message)`` for each protocol
    message after it, and ``on_lost(connection)`` when the socket is
    gone, whichever side closed it.  ``clock`` is the owner's (a
    connection built without one drains on a clock of its own).
    """

    def __init__(
        self,
        on_hello: Callable[[Connection], None],
        on_message: Callable[[Any], None],
        on_lost: Callable[[Connection], None],
        clock: AsyncClock | None = None,
    ) -> None:
        self._on_hello = on_hello
        self._on_message = on_message
        self._on_lost = on_lost
        self._clock = clock if clock is not None else AsyncClock()
        self._transport: SocketTransport | None = None
        #: SID the peer announced in its ``hello`` (``None`` until then).
        self.peer_sid: int | None = None
        self._partial = b""  # received bytes of a frame not complete yet
        self._receiving = False  # ``data_received`` is on the stack
        self._pending: list[bytes] = []  # frames awaiting the next flush
        self._queued = 0  # bytes unsent: write buffer + pending

    # -- lifecycle -----------------------------------------------------

    def connection_made(self, transport: SocketTransport) -> None:
        self._transport = transport

    def connection_lost(self, exc: Exception | None) -> None:
        self._transport = None
        self._pending.clear()
        self._on_lost(self)

    def is_closing(self) -> bool:
        """No further frame will reach the peer."""
        transport = self._transport
        return transport is None or transport.is_closing()

    def close(self) -> None:
        """Flush what is pending, then close (``on_lost`` follows)."""
        self._flush()
        transport, self._transport = self._transport, None
        if transport is not None:
            transport.close()

    def abort(self) -> None:
        """Drop everything unsent and reset the socket."""
        self._pending.clear()
        transport, self._transport = self._transport, None
        if transport is not None:
            transport.abort()

    # -- outbound ------------------------------------------------------

    def send(self, frame: bytes) -> None:
        """Queue one encoded frame; see the module's flush rule."""
        transport = self._transport
        if transport is None:
            return
        pending = self._pending
        if not pending:
            self._queued = transport.get_write_buffer_size()
            if not self._receiving:
                self._clock.call_when_idle(self._flush)
        pending.append(frame)
        self._queued += len(frame)
        if self._queued > MAX_QUEUED_BYTES:
            self.abort()

    def send_hello(self, sid: int) -> None:
        """Announce the local SID (each side's first frame)."""
        self.send(encode_frame({"kind": "hello", "sid": sid}))

    def _flush(self) -> None:
        pending = self._pending
        if pending and self._transport is not None:
            self._transport.write(
                pending[0] if len(pending) == 1 else b"".join(pending)
            )
        pending.clear()

    # -- inbound -------------------------------------------------------

    def data_received(self, data: bytes) -> None:
        """Split, decode and dispatch every complete frame of one recv."""
        if self._partial:
            data = self._partial + data
        position = 0
        self._receiving = True
        try:
            while self._transport is not None:
                frame, end = parse_frame(data, position)
                if frame is None:
                    break
                position = end
                if self.peer_sid is None:
                    self._greet(frame)
                elif type(frame) is list:
                    self._on_message(decode_message(frame))
                # else: a control frame after the handshake is not for
                # the protocol layer
        except CodecError:
            self.close()
        finally:
            self._receiving = False
            self._partial = data[position:]
            if self._pending:
                self._flush()

    def _greet(self, frame: Any) -> None:
        """The first frame must be ``{"kind": "hello", "sid": <int>}``."""
        if (
            type(frame) is not dict
            or frame.get("kind") != "hello"
            or type(frame.get("sid")) is not int
        ):
            raise CodecError(f"expected a hello frame, got {frame!r}")
        self.peer_sid = frame["sid"]
        self._on_hello(self)
