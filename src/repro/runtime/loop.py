"""Sockets on an event loop, without asyncio's transports.

Two pieces, and together they are the runtime's one I/O path:

* :class:`SocketTransport` drives a :class:`~repro.runtime.connection.
  Connection` over a connected non-blocking socket through the loop's
  ``add_reader`` / ``add_writer``.  The coordinator's
  :class:`~repro.runtime.transport.TcpTransport` and every
  :class:`~repro.runtime.siteserver.SiteServer` use it, on whichever
  loop they run.
* :class:`SelectorLoop` is the loop a ``repro serve`` child runs instead
  of ``asyncio.run``: one selector, a FIFO of ready callbacks and a heap
  of timers.  It has exactly the methods that
  :class:`~repro.runtime.clock.AsyncClock`, :class:`SocketTransport` and
  :class:`~repro.runtime.siteserver.SiteServer` call — ``time``,
  ``call_soon``, ``call_at``, ``add_reader`` / ``remove_reader``,
  ``add_writer`` / ``remove_writer``, ``call_exception_handler`` and the
  ``_ready`` queue the clock's idle check reads — which are also methods
  of asyncio's ``SelectorEventLoop``.  So the clock, the connection, the
  server and the site are one implementation each and run unchanged on
  either loop.

Why: a site needs one listening socket, a connection or two and a timer
heap.  ``import asyncio`` brings ``ssl``, ``concurrent.futures``,
``subprocess`` and the rest, 8 of a serving site's 24 MiB peak RSS and
about 60 ms of its start-up (DESIGN §2.16).

What this module keeps of asyncio's behaviour, because the protocol
layer relies on it:

* ``TCP_NODELAY`` on every TCP connection (Nagle would hold a round's
  second write back for the first one's acknowledgement);
* a ``send`` the kernel takes only part of keeps the rest, in order, and
  a writer callback drains it; ``get_write_buffer_size`` counts it, so
  the connection's bound on unsent bytes still sees a peer that never
  reads;
* ``connection_lost`` runs exactly once, from the loop
  (``call_soon``) — never inside ``close()`` or ``abort()`` — on EOF, a
  socket error, a close and an abort;
* a timer fires once ``time() + clock resolution`` passes its deadline
  (asyncio's horizon); the selector's millisecond timeout rounds up, so
  no timer fires early.
"""

from __future__ import annotations

import heapq
import selectors
import socket
import sys
import time
from collections import deque
from collections.abc import Callable
from typing import Any

#: Bytes asked of one ``recv``: enough for a round's frames, small
#: enough to stay below malloc's mmap threshold.
RECV_BYTES = 64 * 1024

#: Connections the kernel queues on a listening socket (asyncio's default).
BACKLOG = 100

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE


class Handle:
    """A callback queued on a :class:`SelectorLoop`; ``cancel`` revokes it."""

    __slots__ = ("_callback", "_args")

    def __init__(self, callback: Callable[..., Any], args: tuple) -> None:
        self._callback: Callable[..., Any] | None = callback
        self._args = args

    def cancel(self) -> None:
        self._callback = None
        self._args = ()


class SelectorLoop:
    """The event-loop methods a site process calls, over one selector.

    Each iteration sleeps in the selector until a socket is ready or the
    earliest timer is due (not at all if callbacks are ready), queues the
    ready sockets' callbacks and the due timers behind the callbacks
    already waiting, and runs what was queued before the iteration began
    its run — a callback queued by one of them waits for the next
    iteration, as on asyncio's loop.  Equal-deadline timers run in the
    order they were scheduled.  A callback that raises is reported
    (:meth:`call_exception_handler`) and the loop goes on;
    ``SystemExit`` and ``KeyboardInterrupt`` propagate.
    """

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()
        #: Callbacks to run, in order; the clock's idle check reads it.
        self._ready: deque[Handle] = deque()
        self._timers: list[tuple[float, int, Handle]] = []  # a heap
        self._sequence = 0
        self._clock_resolution = time.get_clock_info("monotonic").resolution

    def time(self) -> float:
        """Monotonic seconds, the clock asyncio's loop reads too."""
        return time.monotonic()

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> Handle:
        handle = Handle(callback, args)
        self._ready.append(handle)
        return handle

    def call_at(
        self, when: float, callback: Callable[..., Any], *args: Any
    ) -> Handle:
        handle = Handle(callback, args)
        heapq.heappush(self._timers, (when, self._sequence, handle))
        self._sequence += 1
        return handle

    # -- file descriptors ------------------------------------------------

    def add_reader(
        self, fd: int, callback: Callable[..., Any], *args: Any
    ) -> None:
        self._watch(fd, _READ, Handle(callback, args))

    def add_writer(
        self, fd: int, callback: Callable[..., Any], *args: Any
    ) -> None:
        self._watch(fd, _WRITE, Handle(callback, args))

    def remove_reader(self, fd: int) -> bool:
        return self._unwatch(fd, _READ)

    def remove_writer(self, fd: int) -> bool:
        return self._unwatch(fd, _WRITE)

    def _watch(self, fd: int, event: int, handle: Handle) -> None:
        selector = self._selector
        try:
            key = selector.get_key(fd)
        except KeyError:
            pair = (handle, None) if event == _READ else (None, handle)
            selector.register(fd, event, pair)
            return
        reader, writer = key.data
        old = reader if event == _READ else writer
        if old is not None:
            old.cancel()
        pair = (handle, writer) if event == _READ else (reader, handle)
        selector.modify(fd, key.events | event, pair)

    def _unwatch(self, fd: int, event: int) -> bool:
        selector = self._selector
        try:
            key = selector.get_key(fd)
        except KeyError:
            return False
        reader, writer = key.data
        old = reader if event == _READ else writer
        if old is None:
            return False
        old.cancel()  # already queued this iteration: it must not run
        events = key.events & ~event
        if events:
            pair = (None, writer) if event == _READ else (reader, None)
            selector.modify(fd, events, pair)
        else:
            selector.unregister(fd)
        return True

    # -- running ---------------------------------------------------------

    def run_forever(self) -> None:
        """Serve until an exception propagates (a signal's, on a site)."""
        while True:
            self._run_once()

    def _run_once(self) -> None:
        ready, timers = self._ready, self._timers
        while timers and timers[0][2]._callback is None:
            heapq.heappop(timers)  # cancelled: no reason to wake for it
        if ready:
            timeout: float | None = 0.0
        elif timers:
            timeout = max(0.0, timers[0][0] - self.time())
        else:
            timeout = None
        for key, events in self._selector.select(timeout):
            reader, writer = key.data
            if events & _READ and reader is not None:
                ready.append(reader)
            if events & _WRITE and writer is not None:
                ready.append(writer)
        horizon = self.time() + self._clock_resolution
        while timers and timers[0][0] < horizon:
            ready.append(heapq.heappop(timers)[2])
        for _ in range(len(ready)):
            handle = ready.popleft()
            callback = handle._callback
            if callback is None:
                continue
            try:
                callback(*handle._args)
            except (SystemExit, KeyboardInterrupt):
                raise
            except BaseException as exc:
                self.call_exception_handler({
                    "message": f"Exception in callback {callback!r}",
                    "exception": exc,
                })

    def call_exception_handler(self, context: dict[str, Any]) -> None:
        """Write the report to stderr, as asyncio's default handler logs it."""
        import traceback

        lines = [context.get("message", "Unhandled exception in event loop")]
        exc = context.get("exception")
        if exc is not None:
            lines += traceback.format_exception(exc)
        sys.stderr.write("\n".join(line.rstrip("\n") for line in lines) + "\n")


class SocketTransport:
    """A protocol's connected socket, driven through ``loop``'s readers
    and writers.

    ``protocol`` is told ``connection_made(self)`` at once, then
    ``data_received(bytes)`` per ``recv`` and ``connection_lost(exc)``
    once at the end.  Towards the protocol it offers the part of
    asyncio's transport a :class:`~repro.runtime.connection.Connection`
    uses: ``write``, ``get_write_buffer_size``, ``is_closing``, ``close``
    (after the unsent bytes) and ``abort`` (dropping them).
    """

    __slots__ = ("_loop", "_sock", "_fd", "_protocol", "_buffer",
                 "_closing", "_lost")

    def __init__(self, loop: Any, sock: socket.socket, protocol: Any) -> None:
        sock.setblocking(False)
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._loop = loop
        self._sock = sock
        self._fd = sock.fileno()
        self._protocol = protocol
        self._buffer = bytearray()  # what the kernel has not taken yet
        self._closing = False
        self._lost = False  # connection_lost is scheduled
        protocol.connection_made(self)
        loop.add_reader(self._fd, self._read_ready)

    # -- what the protocol calls -----------------------------------------

    def write(self, data: bytes) -> None:
        if self._lost or not data:
            return
        if not self._buffer:
            try:
                sent = self._sock.send(data)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError as exc:
                self._fail(exc)
                return
            if sent == len(data):
                return
            data = memoryview(data)[sent:]
            self._loop.add_writer(self._fd, self._write_ready)
        self._buffer += data

    def get_write_buffer_size(self) -> int:
        return len(self._buffer)

    def is_closing(self) -> bool:
        return self._closing

    def close(self) -> None:
        """Stop reading; end the connection once the unsent bytes are out."""
        if self._closing:
            return
        self._closing = True
        self._loop.remove_reader(self._fd)
        if not self._buffer:
            self._lose(None)

    def abort(self) -> None:
        """End the connection now, unsent bytes and all."""
        self._lose(None)

    # -- what the loop calls ---------------------------------------------

    def _read_ready(self) -> None:
        try:
            data = self._sock.recv(RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._fail(exc)
            return
        if not data:  # the peer's EOF: it will send nothing more
            self.close()
            return
        try:
            self._protocol.data_received(data)
        except Exception as exc:
            self._fail(exc)

    def _write_ready(self) -> None:
        buffer = self._buffer
        try:
            sent = self._sock.send(buffer)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._fail(exc)
            return
        del buffer[:sent]
        if not buffer:
            self._loop.remove_writer(self._fd)
            if self._closing:
                self._lose(None)

    def _fail(self, exc: Exception) -> None:
        """A socket error ends the connection; anything else is a bug in
        the protocol, reported on the loop as asyncio reports it."""
        if not isinstance(exc, OSError):
            self._loop.call_exception_handler({
                "message": "Fatal error: protocol.data_received() failed.",
                "exception": exc,
            })
        self._lose(exc)

    def _lose(self, exc: Exception | None) -> None:
        """Detach from the loop and schedule ``connection_lost`` once."""
        if self._lost:
            return
        self._lost = True
        self._closing = True
        if self._buffer:
            self._buffer.clear()
            self._loop.remove_writer(self._fd)
        self._loop.remove_reader(self._fd)
        self._loop.call_soon(self._connection_lost, exc)

    def _connection_lost(self, exc: Exception | None) -> None:
        try:
            self._protocol.connection_lost(exc)
        finally:
            self._sock.close()
            self._protocol = None
