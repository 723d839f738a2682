"""Local cluster orchestration — the ``repro cluster`` entry point.

Spawns N real site processes (each running ``repro serve`` on an
ephemeral localhost port), dials them with a :class:`TcpTransport`, and
drives the *same* :class:`~repro.sim.coordinator.QuorumCoordinator` the
simulator uses — wall-clock timeouts, real retry backoff, real sockets.
On top of the coordinator sit:

* an awaitable :meth:`LocalCluster.get`/:meth:`LocalCluster.put` pair
  (operation completion callbacks resolved into futures);
* a chaos hook (:meth:`LocalCluster.kill_site`) that injects a crash by
  sending the site process SIGKILL — no cooperation, no cleanup, the
  transport discovers the death through the dropped connection;
* a closed-loop traffic runner (:func:`run_traffic`) measuring
  wall-clock ops/sec and latency percentiles, with an optional mid-run
  kill; ``repro cluster`` (and so the CI runtime job) is a thin wrapper
  around it;
* a KV front-end (:class:`KVFrontend`) serving the get/put API to
  external clients as ``get``/``put``/``result`` control frames.

The tree spec (``"1-3-5"``-style, see :func:`repro.core.builder.from_spec`)
decides replica count and quorum structure exactly as in the simulator.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any

import repro
from repro.core.builder import from_spec
from repro.core.protocol import ArbitraryProtocol
from repro.obs.stats import linear_percentile
from repro.runtime.codec import (
    CodecError,
    check_wire_exact,
    read_frame,
    write_frame,
)
from repro.runtime.transport import TcpTransport
from repro.sim.coordinator import OperationOutcome, QuorumCoordinator
from repro.sim.locks import LockManager

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


class LocalCluster:
    """N local site processes + one in-process coordinator front-end."""

    def __init__(
        self,
        spec: str = "1-3",
        host: str = "127.0.0.1",
        timeout: float = 1.0,
        max_attempts: int = 4,
        seed: int = 0,
        service_time: float = 0.0,
    ) -> None:
        self.spec = spec
        self.tree = from_spec(spec)
        self.system = ArbitraryProtocol(self.tree)
        self.n = self.tree.n
        self.host = host
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.seed = seed
        self.service_time = service_time
        self.sites: list[SiteProcess] = []
        self.transport: TcpTransport | None = None
        self.coordinator: QuorumCoordinator | None = None
        self.locks: LockManager | None = None

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
        addresses and wire the coordinator to them."""
        self.transport = TcpTransport(local_sid=-1)
        await asyncio.gather(
            *(
                self.transport.connect(sid, host, port)
                for sid, host, port in addresses
            )
        )
        self.locks = LockManager(self.transport.clock)
        self.coordinator = QuorumCoordinator(
            sid=-1,
            network=self.transport,
            system=self.system,
            locks=self.locks,
            detector=self.transport.is_live,
            rng=random.Random(self.seed),
            timeout=self.timeout,
            max_attempts=self.max_attempts,
            writer_id=self.n,
            liveness_epoch=self.transport.current_liveness_epoch,
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
# closed-loop traffic (smoke runs, chaos demo, bench)
# ---------------------------------------------------------------------


@dataclass
class TrafficReport:
    """What one closed-loop traffic run observed (wall-clock seconds)."""

    operations: int = 0
    reads: int = 0
    writes: int = 0
    read_failures: int = 0
    write_failures: int = 0
    elapsed: float = 0.0
    read_latencies: list[float] = field(default_factory=list)
    write_latencies: list[float] = field(default_factory=list)
    killed_site: int | None = None
    kill_after_ops: int | None = None
    post_kill_reads: int = 0
    post_kill_read_failures: int = 0

    @property
    def ops_per_sec(self) -> float:
        """Completed operations per wall-clock second."""
        return self.operations / self.elapsed if self.elapsed > 0 else 0.0

    def summary(self) -> dict[str, Any]:
        """JSON-ready headline numbers (a percentile of no samples is 0)."""

        def ms(samples: list[float], fraction: float) -> float:
            if not samples:
                return 0.0
            return round(linear_percentile(sorted(samples), fraction) * 1e3, 4)

        return {
            "operations": self.operations,
            "reads": self.reads,
            "writes": self.writes,
            "read_failures": self.read_failures,
            "write_failures": self.write_failures,
            "elapsed_sec": round(self.elapsed, 6),
            "ops_per_sec": round(self.ops_per_sec, 3),
            "read_p50_ms": ms(self.read_latencies, 0.5),
            "read_p99_ms": ms(self.read_latencies, 0.99),
            "write_p50_ms": ms(self.write_latencies, 0.5),
            "write_p99_ms": ms(self.write_latencies, 0.99),
            "killed_site": self.killed_site,
            "kill_after_ops": self.kill_after_ops,
            "post_kill_reads": self.post_kill_reads,
            "post_kill_read_failures": self.post_kill_read_failures,
        }


async def run_traffic(
    cluster: LocalCluster,
    operations: int = 100,
    read_fraction: float = 0.8,
    keys: int = 8,
    seed: int = 0,
    kill_after_ops: int | None = None,
    kill_site: int | None = None,
) -> TrafficReport:
    """Closed-loop get/put traffic against a started cluster.

    Writes seed each key before the measured loop so reads observe real
    data.  With ``kill_after_ops`` set, site ``kill_site`` (default: the
    highest SID, a deepest-level leaf — quorum-critical for writes on
    some specs but never for reads) is SIGKILLed after that many
    measured operations; reads completed after the kill are tallied
    separately so callers can assert read availability survived.
    """
    rng = random.Random(seed)
    report = TrafficReport(
        killed_site=None,
        kill_after_ops=kill_after_ops,
    )
    for key_index in range(keys):  # unmeasured warmup: seed every key
        await cluster.put(f"k{key_index}", f"seed-{key_index}")
    clock = cluster.transport.clock
    started = clock.now
    killed = False
    for op_index in range(operations):
        if (
            kill_after_ops is not None
            and not killed
            and op_index >= kill_after_ops
        ):
            victim = kill_site if kill_site is not None else cluster.n - 1
            cluster.kill_site(victim)
            report.killed_site = victim
            killed = True
        key = f"k{rng.randrange(keys)}"
        op_start = clock.now
        if rng.random() < read_fraction:
            outcome = await cluster.get(key)
            report.reads += 1
            report.read_latencies.append(clock.now - op_start)
            if not outcome.success:
                report.read_failures += 1
            if killed:
                report.post_kill_reads += 1
                if not outcome.success:
                    report.post_kill_read_failures += 1
        else:
            outcome = await cluster.put(key, f"v{op_index}")
            report.writes += 1
            report.write_latencies.append(clock.now - op_start)
            if not outcome.success:
                report.write_failures += 1
        report.operations += 1
    report.elapsed = clock.now - started
    return report


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


async def kv_request(
    host: str, port: int, frames: list[dict[str, Any]]
) -> list[dict[str, Any]]:
    """Tiny KV client: send ``frames``, return one result per request."""
    reader, writer = await asyncio.open_connection(host, port)
    results: list[dict[str, Any]] = []
    try:
        for frame in frames:
            write_frame(writer, frame)
        await writer.drain()
        for _ in frames:
            result = await read_frame(reader)
            if result is None:
                break
            results.append(result)
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()
    return results
