"""Coordinator-side TCP transport: the seam over real sockets.

One :class:`TcpTransport` lives in the coordinator front-end process.
It dials every site process, keeps one connection per site SID, and
implements the transport seam the protocol layer speaks:

* ``send``/``broadcast`` encode protocol messages as length-prefixed
  JSON frames onto the destination's :class:`~repro.runtime.connection.
  Connection`, which writes all the frames one loop iteration produced
  for that site at once — messages to a dead or never-connected peer
  drop silently, exactly the loss the quorum timeout/retry machinery
  exists to absorb;
* inbound messages arrive decoded from the connection's receive
  callback and are handed to the registered local endpoint (the
  coordinator) — delivery order per peer is the socket's FIFO;
* connection loss marks the peer dead, bumps the liveness epoch (so
  cached live-sets and leases invalidate) and feeds :meth:`is_live`,
  which is the runtime's liveness oracle: a SIGKILLed site's socket
  drops within the OS's RST/FIN handling and quorum selection routes
  around it on the next attempt.

Reconnection is explicit (:meth:`connect` again) — policy belongs to the
operator/cluster layer, not the transport.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any

from repro.runtime.clock import AsyncClock
from repro.runtime.codec import CodecError, encode_frame, encode_message
from repro.runtime.connection import Connection
from repro.runtime.interfaces import Endpoint


@dataclass
class TransportStats:
    """Delivery counters (mirrors the simulator's ``NetworkStats`` shape)."""

    sent: int = 0
    delivered: int = 0
    dropped_dead: int = 0
    disconnects: int = 0


class TcpTransport:
    """The transport seam over one-connection-per-site TCP."""

    def __init__(self, local_sid: int = -1) -> None:
        self._clock = AsyncClock(asyncio.get_event_loop())
        #: SID announced in the ``hello`` handshake; sites route replies
        #: addressed to it back on this transport's connection.
        self.local_sid = local_sid
        self._endpoints: dict[int, Endpoint] = {}
        self._connections: dict[int, Connection] = {}
        self._liveness_epoch = 0
        self.stats = TransportStats()

    @property
    def clock(self) -> AsyncClock:
        """The wall clock protocol timeouts run on."""
        return self._clock

    # -- registry ------------------------------------------------------

    def register(self, sid: int, endpoint: Endpoint) -> None:
        """Attach a local endpoint (the coordinator) under ``sid``."""
        if sid in self._endpoints:
            raise ValueError(f"SID {sid} already registered")
        self._endpoints[sid] = endpoint

    def endpoint(self, sid: int) -> Endpoint:
        """Look up a registered local endpoint."""
        return self._endpoints[sid]

    # -- liveness ------------------------------------------------------

    def is_live(self, sid: int) -> bool:
        """The runtime liveness oracle: a usable connection exists."""
        connection = self._connections.get(sid)
        return connection is not None and not connection.is_closing()

    def live_sids(self) -> list[int]:
        """Every currently connected site SID, sorted."""
        return sorted(sid for sid in self._connections if self.is_live(sid))

    @property
    def liveness_epoch(self) -> int:
        """Counter bumped on every connect/disconnect."""
        return self._liveness_epoch

    def current_liveness_epoch(self) -> int:
        """Bound-method accessor for :attr:`liveness_epoch`."""
        return self._liveness_epoch

    def bump_liveness_epoch(self) -> None:
        """Invalidate cached live-set views."""
        self._liveness_epoch += 1

    # -- connections ---------------------------------------------------

    async def connect(
        self,
        sid: int,
        host: str,
        port: int,
        deadline: float = 5.0,
        retry_delay: float = 0.05,
    ) -> None:
        """Dial site ``sid``, retrying until ``deadline`` wall seconds.

        Retries absorb the race where the site process has announced its
        port but the accept loop is not up yet.
        """
        loop = asyncio.get_running_loop()
        greeted: asyncio.Future[None] = loop.create_future()

        def on_hello(connection: Connection) -> None:
            if greeted.done():  # the dial was abandoned meanwhile
                connection.close()
            elif connection.peer_sid != sid:
                connection.close()
                greeted.set_exception(ConnectionError(
                    f"dialed site {sid} but peer announced "
                    f"{connection.peer_sid}"
                ))
            else:
                old = self._connections.get(sid)
                if old is not None:
                    old.close()
                self._connections[sid] = connection
                self.bump_liveness_epoch()
                greeted.set_result(None)

        def on_lost(connection: Connection) -> None:
            if not greeted.done():
                greeted.set_exception(ConnectionError(
                    f"site {sid} did not complete handshake"
                ))
            elif self._connections.get(sid) is connection:
                del self._connections[sid]
                self.stats.disconnects += 1
                self.bump_liveness_epoch()

        start = self._clock.now
        while True:
            try:
                _, connection = await loop.create_connection(
                    lambda: Connection(on_hello, self._deliver, on_lost),
                    host,
                    port,
                )
                break
            except (ConnectionError, OSError):
                if self._clock.now - start > deadline:
                    raise
                await asyncio.sleep(retry_delay)
        connection.send_hello(self.local_sid)
        try:
            await greeted
        except BaseException:
            connection.close()
            raise

    def _deliver(self, message: Any) -> None:
        """Inbound message -> the local endpoint it is addressed to."""
        endpoint = self._endpoints.get(message.dst)
        if endpoint is None or not endpoint.up:
            return
        self.stats.delivered += 1
        endpoint.receive(message)

    async def close(self) -> None:
        """Drop every connection (not counted as disconnects)."""
        connections = list(self._connections.values())
        self._connections.clear()
        for connection in connections:
            connection.close()
        if connections:
            await asyncio.sleep(0)  # let the loop run their teardown

    # -- delivery ------------------------------------------------------

    def send(self, message: Any) -> None:
        """Frame and queue one protocol message (drops if the peer is gone)."""
        self.stats.sent += 1
        connection = self._connections.get(message.dst)
        if connection is None or connection.is_closing():
            self.stats.dropped_dead += 1
            return
        try:
            connection.send(encode_frame(encode_message(message)))
        except CodecError:
            self.stats.dropped_dead += 1

    def broadcast(self, messages: list) -> None:
        """Send a batch in order (per-destination FIFO is the socket's)."""
        for message in messages:
            self.send(message)
