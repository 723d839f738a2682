"""One replica site served over TCP — the ``repro serve`` entry point.

A :class:`SiteServer` owns a *real* :class:`repro.sim.site.Site` — the
same class the simulator runs, with its versioned store, 2PC prepare log
and recovery protocol — and exposes it on a listening socket.  The
server is itself the transport the site registers on: its ``send``
routes outbound messages (replies, votes, acks, recovery
``DecisionRequest``\\ s) to whichever connection the destination SID
arrived on.

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

import asyncio
from typing import Any

from repro.runtime.clock import AsyncClock
from repro.runtime.codec import CodecError, encode_frame, encode_message
from repro.runtime.connection import Connection
from repro.sim.site import Site


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
        self._server: asyncio.base_events.Server | None = None
        #: Every accepted socket, greeted or not (closed on stop/crash).
        self._connections: set[Connection] = set()
        #: Greeted peers by announced SID: where replies are routed.
        self._peers: dict[int | None, Connection] = {}
        self._accepting = True
        self.site: Site | None = None
        self.clock: AsyncClock | None = None

    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when ``port=0``)."""
        return self._port

    async def start(self) -> None:
        """Bind the socket and wire the site to this server."""
        self.clock = AsyncClock()
        self.site = Site(self.sid, self, service_time=self._service_time)
        self._server = await asyncio.get_running_loop().create_server(
            self._accept, self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, drop every connection, release the port."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._connections:
            self._drop_connections()
            await asyncio.sleep(0)  # let the loop run their teardown

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


async def serve_site(
    sid: int,
    host: str = "127.0.0.1",
    port: int = 0,
    service_time: float = 0.0,
) -> None:
    """Run one site process until cancelled (``repro serve``).

    Prints ``REPRO-SITE sid=<sid> port=<port>`` once the socket is bound
    so a parent orchestrator can scrape the ephemeral port.
    """
    server = SiteServer(sid, host=host, port=port, service_time=service_time)
    await server.start()
    print(f"REPRO-SITE sid={sid} port={server.port}", flush=True)
    try:
        await asyncio.Event().wait()  # serve until cancelled/killed
    finally:
        await server.stop()
