"""One replica site served over TCP — the ``repro serve`` entry point.

A :class:`SiteServer` owns a *real* :class:`repro.sim.site.Site` — the
same class the simulator runs, with its versioned store, 2PC prepare log
and recovery protocol — and exposes it on a listening socket.  The
server is itself the transport the site registers on: its ``send``
routes outbound messages (replies, votes, acks, recovery
``DecisionRequest``\\ s) to whichever connection the destination SID
arrived on.

The server runs on any loop with ``add_reader`` (see
:mod:`repro.runtime.loop`): a ``repro serve`` child runs it on a
:class:`~repro.runtime.loop.SelectorLoop` and never imports asyncio; an
in-process server (the tests) runs on the caller's asyncio loop.  It
binds its own listening socket and accepts through ``add_reader``; each
accepted socket is a :class:`~repro.runtime.loop.SocketTransport`.

Connection protocol: a connecting peer (the coordinator front-end) first
sends a ``hello`` control frame carrying its own SID; every later frame
is a protocol message for this site.  Replies flow back on the same
:class:`~repro.runtime.connection.Connection` — the replies to all the
requests of one ``recv`` in one write.  A peer that disconnects is
forgotten — messages to it drop, exactly like the simulator's
delivery-time liveness check.

Crash injection: the *real* chaos mode SIGKILLs the whole process (see
:mod:`repro.runtime.cluster`).  For in-process tests, :meth:`crash`
models the same observable event — the site stops answering and its
connections drop — while :meth:`recover` restores service with stable
storage intact and runs the site's 2PC termination protocol.
"""

from __future__ import annotations

import os
import socket
import sys
from typing import Any

from repro.runtime.clock import AsyncClock
from repro.runtime.codec import CodecError, encode_frame, encode_message
from repro.runtime.connection import Connection
from repro.runtime.loop import BACKLOG, SelectorLoop, SocketTransport
from repro.sim.site import Site

#: Seconds a listening socket rests after the process ran out of file
#: descriptors (or the kernel of memory) on an accept (asyncio's delay).
ACCEPT_RETRY_DELAY = 1.0


class SiteServer:
    """Serve one replica site on a TCP port.

    Also the seam as seen from inside one site process (``clock``,
    ``register``, ``send``, ``bump_liveness_epoch``: what a :class:`Site`
    calls): outbound routing is by destination SID -> live connection,
    and a site process keeps no liveness view (remote liveness is the
    coordinator transport's job).
    """

    def __init__(
        self,
        sid: int,
        host: str = "127.0.0.1",
        port: int = 0,
        service_time: float = 0.0,
    ) -> None:
        self.sid = sid
        self._host = host
        self._port = port
        self._service_time = service_time
        self._loop: Any = None
        self._listener: socket.socket | None = None
        #: Every accepted socket, greeted or not (closed on stop/crash).
        self._connections: set[Connection] = set()
        #: Greeted peers by announced SID: where replies are routed.
        self._peers: dict[int | None, Connection] = {}
        self._accepting = True
        self.site: Site | None = None
        self.clock: AsyncClock | None = None

    @property
    def port(self) -> int:
        """The bound port (resolved by :meth:`listen` when ``port=0``)."""
        return self._port

    def listen(self, loop: Any) -> None:
        """Bind the socket, wire the site to this server and accept on
        ``loop`` (an asyncio loop or a :class:`SelectorLoop`)."""
        self._loop = loop
        self.clock = AsyncClock(loop)
        # A site process cannot know its coordinator's timeout, so an
        # undecided prepare asks after LocalCluster's default of one
        # second.  Asking early is safe: a coordinator still collecting
        # votes stays silent, and the site asks again a second later.
        self.site = Site(
            self.sid, self, service_time=self._service_time, timeout=1.0
        )
        family = socket.AF_INET6 if ":" in self._host else socket.AF_INET
        listener = socket.socket(family, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            listener.listen(BACKLOG)
            listener.setblocking(False)
        except BaseException:
            listener.close()
            raise
        self._listener = listener
        self._port = listener.getsockname()[1]
        loop.add_reader(listener.fileno(), self._accept_ready)

    def close(self) -> None:
        """Stop accepting, drop every connection, release the port."""
        listener, self._listener = self._listener, None
        if listener is not None:
            self._loop.remove_reader(listener.fileno())
            listener.close()
        self._drop_connections()

    async def start(self) -> None:
        """:meth:`listen` on the running asyncio loop."""
        import asyncio

        self.listen(asyncio.get_running_loop())

    async def stop(self) -> None:
        """:meth:`close`, then let the loop run the connections' teardown."""
        import asyncio

        dropped = bool(self._connections)
        self.close()
        if dropped:
            await asyncio.sleep(0)

    # -- crash / recovery (in-process fault injection) -----------------

    def crash(self) -> None:
        """Fail-stop the site and sever its connections.

        Observably identical to SIGKILL from the coordinator's side: the
        connection drops and nothing answers until :meth:`recover`.
        """
        self._accepting = False
        assert self.site is not None
        self.site.crash()
        self._drop_connections()

    def recover(self) -> None:
        """Resume service (stable storage intact, 2PC termination runs)."""
        self._accepting = True
        assert self.site is not None
        self.site.recover()

    def _drop_connections(self) -> None:
        for connection in list(self._connections):
            connection.close()
        self._peers.clear()

    # -- the site's transport ------------------------------------------

    def register(self, sid: int, endpoint: Site) -> None:
        """Nothing to record: the one endpoint here is :attr:`site`."""

    def bump_liveness_epoch(self) -> None:
        """Nothing here reads a liveness epoch: the site's own crash and
        recovery change no view in this process."""

    def send(self, message: Any) -> None:
        """Deliver an outbound protocol message to its peer connection."""
        connection = self._peers.get(message.dst)
        if connection is None or connection.is_closing():
            return  # peer gone: drop, the quorum layer tolerates loss
        try:
            connection.send(encode_frame(encode_message(message)))
        except CodecError:
            pass  # unencodable or oversized: dropped like any lost message

    # -- inbound -------------------------------------------------------

    def _accept_ready(self) -> None:
        """The listening socket is readable: take every queued peer."""
        listener = self._listener
        while listener is not None:
            try:
                sock, _ = listener.accept()
            except (BlockingIOError, InterruptedError, ConnectionAbortedError):
                return
            except OSError as exc:  # out of descriptors or memory: rest
                self._loop.call_exception_handler({
                    "message": "socket.accept() out of system resource",
                    "exception": exc,
                })
                self._loop.remove_reader(listener.fileno())
                self._loop.call_at(
                    self._loop.time() + ACCEPT_RETRY_DELAY, self._resume
                )
                return
            SocketTransport(self._loop, sock, self._accept())

    def _resume(self) -> None:
        if self._listener is not None:
            self._loop.add_reader(self._listener.fileno(), self._accept_ready)

    def _accept(self) -> Connection:
        connection = Connection(
            self._on_hello, self._on_message, self._on_lost, self.clock
        )
        self._connections.add(connection)
        return connection

    def _on_hello(self, connection: Connection) -> None:
        if not self._accepting:
            connection.close()
            return
        self._peers[connection.peer_sid] = connection
        connection.send_hello(self.sid)

    def _on_message(self, message: Any) -> None:
        if self._accepting:
            assert self.site is not None
            self.site.receive(message)

    def _on_lost(self, connection: Connection) -> None:
        self._connections.discard(connection)
        if self._peers.get(connection.peer_sid) is connection:
            del self._peers[connection.peer_sid]


def serve_site(
    sid: int,
    host: str = "127.0.0.1",
    port: int = 0,
    service_time: float = 0.0,
) -> None:
    """Run one site process on a :class:`SelectorLoop` until a signal
    ends it (``repro serve``): SIGINT raises ``KeyboardInterrupt`` out of
    the loop, SIGTERM's default action ends the process.

    Prints ``REPRO-SITE sid=<sid> port=<port>`` once the socket is bound
    so a parent orchestrator can scrape the ephemeral port.

    On Linux the process first puts itself in ``SCHED_BATCH``: a frame
    arriving from the coordinator then wakes the site without preempting
    the coordinator mid-round, so the coordinator's ``send(2)`` returns
    at its CPU cost and the site reads the round's frames in one wakeup
    (EXPERIMENTS.md, "A site wakes once per round").  Only this process
    changes class — an in-process :class:`SiteServer` never does — and a
    kernel that refuses leaves the default class.
    """
    if sys.platform.startswith("linux"):
        try:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
        except OSError:
            pass  # refused: serve in the default class
    loop = SelectorLoop()
    server = SiteServer(sid, host=host, port=port, service_time=service_time)
    server.listen(loop)
    print(f"REPRO-SITE sid={sid} port={server.port}", flush=True)
    try:
        loop.run_forever()
    finally:
        server.close()
