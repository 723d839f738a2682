"""Local cluster orchestration — the ``repro cluster`` entry point.

A :class:`LocalCluster` runs a :class:`~repro.sim.engine.SimulationConfig`
on real processes: one ``repro serve`` child per replica of
``config.resolve()`` (any protocol of the zoo), dialled by a
:class:`TcpTransport`, and the config's coordinator wired by
:func:`~repro.sim.engine.build_coordinators` as in the simulator.  One
time unit of the config is one wall second (DESIGN §2.17).  On top sit:

* :meth:`LocalCluster.run`, the simulator's ``Workload`` → coordinator →
  ``InvariantChecker.wrap`` → ``Monitor`` pipeline over the live sites,
  returning a :class:`~repro.sim.engine.SimulationResult`;
* an awaitable :meth:`LocalCluster.get`/:meth:`LocalCluster.put` pair
  (operation completion callbacks resolved into futures);
* a chaos hook (:meth:`LocalCluster.kill_site`) that injects a crash by
  sending the site process SIGKILL — no cooperation, no cleanup, the
  transport discovers the death through the dropped connection;
* a KV front-end (:class:`KVFrontend`) serving the get/put API to
  external clients as ``get``/``put``/``result`` control frames.
"""

from __future__ import annotations

import asyncio
import os
import random
import subprocess
import sys
import tempfile
from collections.abc import Callable
from pathlib import Path
from typing import IO, Any

import repro
from repro.core.builder import from_spec
from repro.fault.invariants import InvariantChecker
from repro.obs.recorder import NULL_RECORDER, NullRecorder, TraceRecorder
from repro.runtime.codec import (
    CodecError,
    check_wire_exact,
    read_frame,
    write_frame,
)
from repro.runtime.transport import TcpTransport
from repro.sim.coordinator import OperationOutcome, QuorumCoordinator
from repro.sim.engine import (
    COORDINATOR_SID,
    SimulationConfig,
    SimulationResult,
    build_coordinators,
    child_seeds,
    outcome_sink,
)
from repro.sim.locks import LockManager
from repro.sim.monitor import Monitor
from repro.sim.network import NetworkStats
from repro.sim.workload import Workload

_ANNOUNCE_PREFIX = "REPRO-SITE "


def _site_env() -> dict[str, str]:
    """Child environment with this checkout's ``src`` on PYTHONPATH."""
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    return env


def _check_key(key: Any) -> None:
    """Refuse a key the wire would change or a site could not index."""
    check_wire_exact(key)
    try:
        hash(key)
    except TypeError as exc:
        raise CodecError(f"{key!r} cannot key a site's store") from exc


class SiteProcess:
    """One replica site running as a real child process."""

    def __init__(
        self, sid: int, host: str = "127.0.0.1", service_time: float = 0.0
    ) -> None:
        self.sid = sid
        self.host = host
        self.service_time = service_time
        self.port: int | None = None
        self.proc: subprocess.Popen | None = None
        self._stderr: IO[bytes] | None = None  # the child's, for diagnosis

    async def spawn(self, timeout: float = 10.0) -> None:
        """Start ``repro serve`` and scrape the announced ephemeral port."""
        # An unnamed file, not a pipe: nothing drains a pipe, and a site
        # that logged enough would block on it.
        self._stderr = tempfile.TemporaryFile()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--sid", str(self.sid), "--host", self.host, "--port", "0",
                "--service-time", repr(self.service_time),
            ],
            env=_site_env(),
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        loop = asyncio.get_running_loop()
        assert self.proc.stdout is not None
        while True:
            line = await asyncio.wait_for(
                loop.run_in_executor(None, self.proc.stdout.readline), timeout
            )
            if not line:
                returncode = await asyncio.wait_for(
                    loop.run_in_executor(None, self.proc.wait), timeout
                )
                raise RuntimeError(
                    f"site {self.sid} exited before announcing its port "
                    f"(rc={returncode}); its stderr ended:\n"
                    f"{self._stderr_tail()}"
                )
            if line.startswith(_ANNOUNCE_PREFIX):
                fields = dict(
                    part.split("=", 1)
                    for part in line[len(_ANNOUNCE_PREFIX):].split()
                )
                self.port = int(fields["port"])
                return

    def _stderr_tail(self, lines: int = 12) -> str:
        """The last ``lines`` lines the child wrote to stderr."""
        assert self._stderr is not None
        self._stderr.seek(0)
        text = self._stderr.read().decode("utf-8", "replace")
        return "\n".join(text.splitlines()[-lines:])

    @property
    def alive(self) -> bool:
        """The process exists and has not exited."""
        return self.proc is not None and self.proc.poll() is None

    def kill(self) -> None:
        """SIGKILL — the chaos injection: no warning, no cleanup."""
        if self.proc is not None:
            self.proc.kill()

    async def stop(self, grace: float = 5.0) -> int | None:
        """Graceful shutdown: SIGTERM, then SIGKILL past ``grace`` seconds."""
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            self.proc.terminate()
            loop = asyncio.get_running_loop()
            try:
                await asyncio.wait_for(
                    loop.run_in_executor(None, self.proc.wait), grace
                )
            except asyncio.TimeoutError:
                self.proc.kill()
                await loop.run_in_executor(None, self.proc.wait)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if self._stderr is not None:
            self._stderr.close()
        return self.proc.returncode


#: What a TCP cluster cannot honour yet (ROADMAP item 3): a config that
#: sets one of these fields off its default is refused.
_SIMULATOR_ONLY = {
    "failures": "a site process fails only by LocalCluster.kill_site",
    "latency": "the host's network sets the latency",
    "drop_probability": "the host's network sets the loss",
    "duplicate_probability": "the host's network sets the duplication",
    "reshape_at": "only the simulator reshapes the tree mid-run",
    "clients": "a site replies on the connection whose hello named the "
               "destination, so a second coordinator SID hears nothing",
}


class LocalCluster:
    """N local site processes + one in-process coordinator front-end.

    ``config`` describes the cluster and its run; without one, ``spec``,
    ``timeout``, ``max_attempts``, ``seed`` and ``service_time`` stand
    for the config that sets only those.  A config that asks for what
    TCP cannot honour yet (a failure injector, a latency, loss or
    duplication model, a mid-run reshape, more than one client) is
    refused with ``ValueError`` naming the field.
    """

    def __init__(
        self,
        spec: str = "1-3",
        host: str = "127.0.0.1",
        timeout: float = 1.0,
        max_attempts: int = 4,
        seed: int = 0,
        service_time: float = 0.0,
        config: SimulationConfig | None = None,
    ) -> None:
        if config is None:
            config = SimulationConfig(
                tree=from_spec(spec), timeout=timeout,
                max_attempts=max_attempts, seed=seed,
                service_time=service_time,
            )
        default = SimulationConfig()
        for name, reason in _SIMULATOR_ONLY.items():
            value = getattr(config, name)
            if value != getattr(default, name):
                raise ValueError(f"{name}={value!r}: {reason}")
        self.config = config
        self.system, self.n = config.resolve()
        self.host = host
        self.timeout = config.timeout
        self.max_attempts = config.max_attempts
        self.seed = config.seed
        self.service_time = config.service_time
        self.sites: list[SiteProcess] = []
        self.transport: TcpTransport | None = None
        self.coordinator: QuorumCoordinator | None = None
        self.locks: LockManager | None = None
        self._recorder: NullRecorder = (
            TraceRecorder() if config.trace else NULL_RECORDER
        )

    async def start(self) -> None:
        """Spawn every site, dial them all, wire the coordinator."""
        self.sites = [
            SiteProcess(sid, self.host, self.service_time)
            for sid in range(self.n)
        ]
        try:
            await asyncio.gather(*(site.spawn() for site in self.sites))
            await self.dial(
                [(site.sid, site.host, site.port) for site in self.sites]
            )
        except BaseException:
            await self.stop()
            raise

    async def dial(self, addresses: list[tuple[int, str, int]]) -> None:
        """Connect to sites already serving at ``(sid, host, port)``
        addresses and wire the config's coordinator to them."""
        transport = self.transport = TcpTransport(local_sid=COORDINATOR_SID)
        await asyncio.gather(
            *(
                transport.connect(sid, host, port)
                for sid, host, port in addresses
            )
        )
        self.coordinator, = build_coordinators(
            self.config, self.system, self.n, transport,
            lambda _coordinator_sid: transport.is_live,
            self._recorder, child_seeds(self.seed)[2],
        )
        self.locks = self.coordinator.locks

    async def run(
        self, on_outcome: Callable[[OperationOutcome], None] | None = None
    ) -> SimulationResult:
        """Run the config's workload over the live sites.

        Outcomes go through the config's ``InvariantChecker`` (when
        ``check_invariants``) into a :class:`Monitor`, then to
        ``on_outcome``, as in :func:`~repro.sim.engine.simulate`; the
        workload draws the simulator's keys and operations for the same
        seed.  A violated invariant ends the run and raises here.
        """
        assert self.coordinator is not None, "cluster not started"
        config = self.config
        clock = self.transport.clock
        stats = self.transport.stats
        monitor = Monitor(tuple(range(self.n)), recorder=self._recorder)
        invariants = InvariantChecker() if config.check_invariants else None
        sink = outcome_sink(monitor, invariants, on_outcome)
        finished = asyncio.get_running_loop().create_future()

        def record(outcome: OperationOutcome) -> None:
            try:
                sink(outcome)
            except Exception as exc:  # raised in a loop callback: carry it
                if not finished.done():
                    finished.set_exception(exc)

        workload = Workload(
            config.workload, self.coordinator, clock,
            random.Random(child_seeds(config.seed)[1]), record,
        )
        workload.add_on_complete(
            lambda: finished.done() or finished.set_result(None)
        )
        sent, delivered, dropped = stats.sent, stats.delivered, stats.dropped_dead
        started = clock.now
        workload.start()
        await finished
        return SimulationResult(
            config=config,
            monitor=monitor,
            network_stats=NetworkStats(
                sent=stats.sent - sent,
                delivered=stats.delivered - delivered,
                dropped_dead=stats.dropped_dead - dropped,
            ),
            sites=[],
            duration=clock.now - started,
            events_processed=0,
            recorder=self._recorder,
            suspects=self.coordinator.suspects,
            invariants=invariants,
            leases=self.coordinator.leases,
        )

    async def stop(self) -> list[int | None]:
        """Close the transport and terminate every site; returns rcs."""
        if self.transport is not None:
            await self.transport.close()
        return list(
            await asyncio.gather(*(site.stop() for site in self.sites))
        )

    def orphans(self) -> list[int]:
        """SIDs of site processes still running (must be empty after stop)."""
        return [site.sid for site in self.sites if site.alive]

    # -- chaos ---------------------------------------------------------

    def kill_site(self, sid: int) -> None:
        """SIGKILL one site process (the kill-9 chaos injection)."""
        self.sites[sid].kill()

    # -- operations ----------------------------------------------------

    def _submit(
        self, op: str, key: Any, value: Any
    ) -> "asyncio.Future[OperationOutcome]":
        assert self.coordinator is not None, "cluster not started"
        future: asyncio.Future[OperationOutcome] = (
            asyncio.get_running_loop().create_future()
        )

        def on_done(outcome: OperationOutcome) -> None:
            if not future.done():
                future.set_result(outcome)

        if op == "read":
            self.coordinator.read(key, on_done)
        else:
            self.coordinator.write(key, value, on_done)
        return future

    async def get(self, key: Any) -> OperationOutcome:
        """Quorum read of ``key`` over the live cluster.

        Raises :class:`~repro.runtime.codec.CodecError`, sending nothing,
        for a key the wire would not carry exactly or a site could not
        index (a list or an object).
        """
        _check_key(key)
        return await self._submit("read", key, None)

    async def put(self, key: Any, value: Any) -> OperationOutcome:
        """Quorum write ``key := value`` (2PC) over the live cluster.

        Raises :class:`~repro.runtime.codec.CodecError`, before any lock
        is taken, for a key or value the wire would not carry exactly or
        a key a site could not index.
        """
        _check_key(key)
        check_wire_exact(value)
        return await self._submit("write", key, value)


# ---------------------------------------------------------------------
# KV front-end (external clients)
# ---------------------------------------------------------------------


class KVFrontend:
    """Serve the cluster's get/put API over TCP control frames.

    Requests: ``{"kind": "get", "id": n, "key": k}`` and
    ``{"kind": "put", "id": n, "key": k, "value": v}``; each gets one
    ``{"kind": "result", "id": n, "ok": bool, "value": ..., "version":
    ...}`` reply.  ``{"kind": "stop"}`` asks the front-end to shut the
    cluster down (the kill-9 demo's clean exit).

    Clients are outside the program: a frame that is not an object (a
    protocol array, say) or a key no site could index (a list, an
    object) is answered with ``"ok": false``, and bytes that
    are no frame at all (:class:`~repro.runtime.codec.CodecError`) close
    the connection they came on — neither disturbs another client.
    """

    def __init__(
        self, cluster: LocalCluster, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._cluster = cluster
        self._host = host
        self._port = port
        self._server: asyncio.base_events.Server | None = None
        self.stop_requested = asyncio.Event()

    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when ``port=0``)."""
        return self._port

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    return
                if type(frame) is not dict:
                    write_frame(
                        writer,
                        {"kind": "result", "ok": False,
                         "error": "expected an object frame with a kind"},
                    )
                    continue
                kind = frame.get("kind")
                if kind == "stop":
                    write_frame(writer, {"kind": "result", "ok": True})
                    await writer.drain()
                    self.stop_requested.set()
                    return
                if kind not in ("get", "put"):
                    write_frame(
                        writer,
                        {"kind": "result", "ok": False,
                         "error": f"unknown kind {kind!r}"},
                    )
                    continue
                try:
                    if kind == "get":
                        outcome = await self._cluster.get(frame.get("key"))
                    else:
                        outcome = await self._cluster.put(
                            frame.get("key"), frame.get("value")
                        )
                except CodecError as exc:  # refused before anything was sent
                    write_frame(
                        writer,
                        {"kind": "result", "id": frame.get("id"), "ok": False,
                         "error": str(exc)},
                    )
                    continue
                write_frame(
                    writer,
                    {
                        "kind": "result",
                        "id": frame.get("id"),
                        "ok": outcome.success,
                        "value": outcome.value,
                        "version": (
                            outcome.timestamp.version
                            if outcome.timestamp is not None
                            else None
                        ),
                    },
                )
                await writer.drain()
        except (ConnectionError, CodecError):
            return
        finally:
            # Also the way out for a cancellation: the writer is closed
            # and the CancelledError keeps propagating, so whoever
            # cancelled this handler sees a cancelled task, not a clean
            # return.
            writer.close()
