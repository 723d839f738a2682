"""The three TCP workloads: real ``repro serve`` processes on localhost.

The cluster is assembled from the runtime's public pieces
(:class:`SiteProcess`, :class:`TcpTransport`, :class:`LockManager`,
:class:`QuorumCoordinator`) rather than through ``LocalCluster.start``
for two reasons the README records: ``LocalCluster(service_time=...)``
is never forwarded to the site processes, and the coordinator's
``recorder`` argument is not reachable through it.
"""

from __future__ import annotations

import asyncio
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import repro
from repro.obs.recorder import NULL_RECORDER, NullRecorder, TraceRecorder
from repro.runtime.cluster import LocalCluster, SiteProcess
from repro.runtime.transport import TcpTransport
from repro.sim.coordinator import QuorumCoordinator
from repro.sim.locks import LockManager

from tracing import Stopwatch, coordinator_layers
from loadgen import (
    ClosedResult,
    ConsistencyChecker,
    closed_loop,
    open_loop,
    summarise_open,
)
from workloads import (
    CLOSED_CLIENTS,
    SEGMENTS,
    SETUP_REPEATS,
    SITE_BOUND_CEILING_OPS,
    TCP_KEYS,
    TREE_SPEC,
    OpStream,
    TcpWorkload,
    key_name,
    poisson_schedule,
    seed_value,
)

_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


class LedgerSite(SiteProcess):
    """A site child spawned through the public CLI with a service time."""

    def __init__(self, sid: int, service_time: float) -> None:
        super().__init__(sid)
        self.service_time = service_time

    async def spawn(self, timeout: float = 10.0) -> None:
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src_dir, env.get("PYTHONPATH")) if part
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--sid", str(self.sid), "--host", self.host, "--port", "0",
                "--service-time", repr(self.service_time),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        loop = asyncio.get_running_loop()
        while True:
            line = await asyncio.wait_for(
                loop.run_in_executor(None, self.proc.stdout.readline), timeout
            )
            if not line:
                raise RuntimeError(
                    f"site {self.sid} exited before announcing its port"
                )
            if line.startswith("REPRO-SITE "):
                self.port = int(line.rsplit("port=", 1)[1])
                return


class LedgerCluster(LocalCluster):
    """``LocalCluster`` with service-time sites and a swappable coordinator."""

    def __init__(self, workload: TcpWorkload, seed: int) -> None:
        super().__init__(
            spec=TREE_SPEC,
            timeout=workload.timeout,
            seed=seed,
            service_time=workload.service_time,
        )

    async def start(self) -> None:
        self.sites = [
            LedgerSite(sid, self.service_time) for sid in range(self.n)
        ]
        try:
            await asyncio.gather(*(site.spawn() for site in self.sites))
            await self.connect()
        except BaseException:
            await self.stop()
            raise

    async def connect(self, recorder: NullRecorder = NULL_RECORDER) -> None:
        """(Re)dial every site with a fresh transport, lock manager and
        coordinator; the sites and their stores stay as they are."""
        if self.transport is not None:
            await self.transport.close()
        self.transport = TcpTransport(local_sid=-1)
        await asyncio.gather(
            *(
                self.transport.connect(site.sid, site.host, site.port)
                for site in self.sites
            )
        )
        self.locks = LockManager(self.transport.clock, recorder=recorder)
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
            recorder=recorder,
        )

    # -- accounting, read from /proc -----------------------------------

    def site_cpu_seconds(self) -> float:
        """Σ utime + stime of every site process."""
        ticks = 0
        for site in self.sites:
            stat = Path(f"/proc/{site.proc.pid}/stat").read_text()
            fields = stat.rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])
        return ticks / _CLOCK_TICK

    def cpu_seconds(self) -> float:
        """CPU burned so far by the coordinator process and every site."""
        return time.process_time() + self.site_cpu_seconds()

    def peak_rss_mib(self) -> float:
        """Coordinator ``ru_maxrss`` plus every site's ``VmHWM``."""
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for site in self.sites:
            status = Path(f"/proc/{site.proc.pid}/status").read_text()
            kib += int(status.split("VmHWM:", 1)[1].split()[0])
        return kib / 1024


async def start_cluster(
    workload: TcpWorkload, seed: int
) -> tuple[LedgerCluster, float]:
    """Spawn, dial and seed every key; returns the cluster and how long
    that took (the ``setup_s`` sample)."""
    started = time.perf_counter()
    cluster = LedgerCluster(workload, seed)
    await cluster.start()
    try:
        for index in range(TCP_KEYS):
            outcome = await cluster.put(key_name(index), seed_value(index))
            if not outcome.success:
                raise RuntimeError(f"seeding {key_name(index)} failed")
    except BaseException:
        await stop_cluster(cluster)
        raise
    return cluster, time.perf_counter() - started


async def stop_cluster(cluster: LedgerCluster) -> None:
    """Stop every site; anything still alive afterwards is killed and
    reported."""
    try:
        await cluster.stop()
    finally:
        orphans = cluster.orphans()
        for sid in orphans:
            cluster.kill_site(sid)
            cluster.sites[sid].proc.wait()
    if orphans:
        raise RuntimeError(f"site processes survived stop(): {orphans}")


def _seeded_checker() -> ConsistencyChecker:
    checker = ConsistencyChecker()
    for index in range(TCP_KEYS):
        checker.begin_write(key_name(index), seed_value(index))
    return checker


async def _closed(
    cluster: LedgerCluster,
    workload: TcpWorkload,
    checker: ConsistencyChecker,
    seed: str,
    segment_seconds: float,
    segments: int = SEGMENTS,
) -> ClosedResult:
    return await closed_loop(
        cluster,
        OpStream(seed, workload.read_fraction),
        checker,
        CLOSED_CLIENTS,
        segments,
        segment_seconds,
        cluster.cpu_seconds,
    )


def _closed_raw(result: ClosedResult) -> list[dict[str, float]]:
    return [
        {"ops": s.ops, "wall_s": s.wall_s, "cpu_s": s.cpu_s}
        for s in result.segments
    ]


async def _untraced_phases(
    cluster: LedgerCluster,
    workload: TcpWorkload,
    checker: ConsistencyChecker,
    seed: int,
    seconds: float,
    closed_segment_seconds: float,
) -> tuple[ClosedResult, dict[str, Any]]:
    """Warm-up, closed-loop saturation, then the fixed-rate open loop
    (which always gets half of ``seconds``)."""
    open_segment_seconds = seconds / (2 * SEGMENTS)
    await _closed(
        cluster, workload, checker, f"{seed}/warm", min(2.0, seconds / 10), 1
    )
    closed = await _closed(
        cluster, workload, checker, f"{seed}/closed", closed_segment_seconds
    )
    opened = summarise_open(
        await open_loop(
            cluster,
            OpStream(f"{seed}/open", workload.read_fraction),
            checker,
            poisson_schedule(
                f"{seed}/due", workload.open_rate,
                SEGMENTS * open_segment_seconds,
            ),
            SEGMENTS,
            open_segment_seconds,
        )
    )
    return closed, opened


def _end_to_end(
    setup_s: list[float],
    closed: ClosedResult,
    opened: dict[str, Any],
    peak_rss_mib: float,
) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": closed.ops_per_s,
        "cpu_us_per_op": closed.cpu_us_per_op,
        "read_p50_ms": opened["read_p50_ms"],
        "write_p50_ms": opened["write_p50_ms"],
        "peak_rss_mb": peak_rss_mib,
    }


async def run_untraced(
    workload: TcpWorkload, seed: int, seconds: float
) -> dict[str, Any]:
    """The ``--trace 0`` run: every end-to-end metric, tracing off."""
    setup_s = []
    for _ in range(SETUP_REPEATS - 1):
        cluster, elapsed = await start_cluster(workload, seed)
        await stop_cluster(cluster)
        setup_s.append(elapsed)
    cluster, elapsed = await start_cluster(workload, seed)
    setup_s.append(elapsed)
    checker = _seeded_checker()
    try:
        closed, opened = await _untraced_phases(
            cluster, workload, checker, seed, seconds,
            closed_segment_seconds=seconds / (2 * SEGMENTS),
        )
        peak_rss_mib = cluster.peak_rss_mib()
    finally:
        await stop_cluster(cluster)
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "violations": checker.violations,
        "end_to_end": _end_to_end(setup_s, closed, opened, peak_rss_mib),
        "raw": {
            "setup_s": setup_s,
            "closed_segments": _closed_raw(closed),
            "open": opened,
        },
    }


# ---------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------


async def run_traced(
    workload: TcpWorkload, seed: int, seconds: float
) -> dict[str, Any]:
    """The ``--trace 1`` run: untraced closed and open loops, then the
    same closed loop again on the same sites with a ``TraceRecorder`` and
    timing shims around the coordinator's and the transport's entry
    points."""
    closed_segment_seconds = seconds / (4 * SEGMENTS)
    cluster, setup_s = await start_cluster(workload, seed)
    checker = _seeded_checker()
    try:
        closed, opened = await _untraced_phases(
            cluster, workload, checker, seed, seconds, closed_segment_seconds
        )

        recorder = TraceRecorder()
        await cluster.connect(recorder)
        coordinator, transport = cluster.coordinator, cluster.transport
        receive, submit, send = Stopwatch(), Stopwatch(), Stopwatch()
        coordinator.receive = receive.wrap(coordinator.receive)
        coordinator.read = submit.wrap(coordinator.read)
        coordinator.write = submit.wrap(coordinator.write)
        transport.send = send.wrap(transport.send)
        coordinator_cpu = time.process_time()
        site_cpu = cluster.site_cpu_seconds()
        traced = await _closed(
            cluster, workload, checker, f"{seed}/traced", closed_segment_seconds
        )
        coordinator_cpu = time.process_time() - coordinator_cpu
        site_cpu = cluster.site_cpu_seconds() - site_cpu
        peak_rss_mib = cluster.peak_rss_mib()
    finally:
        await stop_cluster(cluster)

    ops = traced.ops
    sent = transport.stats.sent
    per_layer = {
        # Stopwatch times are inclusive: a send issued while handling a
        # reply is counted under receive and under send.
        "transport.send_us_per_op": send.seconds / ops * 1e6,
        "transport.msgs_per_op": sent / ops,
        "transport.dropped_dead": transport.stats.dropped_dead,
        "siteserver.cpu_us_per_msg": site_cpu / sent * 1e6,
        "siteserver.cpu_share": site_cpu / (site_cpu + coordinator_cpu),
        "coordinator.receive_us_per_op": receive.seconds / ops * 1e6,
        "coordinator.submit_us_per_op": submit.seconds / ops * 1e6,
        **coordinator_layers(
            recorder, cluster.locks.stats, traced.latency_total_s, to_ms=1e3
        ),
        "client.read_p99_ms": opened["read_p99_ms"],
        "client.write_p99_ms": opened["write_p99_ms"],
        "client.late_p99_ms": opened["late_p99_ms"],
        "client.samples_per_segment": opened["samples_per_segment"],
        "obs.trace_overhead_frac": 1.0 - traced.ops_per_s / closed.ops_per_s,
    }
    if workload.service_time:
        # Reconciliation (b): a quorum system cannot beat its load ceiling.
        per_layer["model.capacity_ratio"] = (
            closed.ops_per_s / SITE_BOUND_CEILING_OPS
        )
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "violations": checker.violations,
        "end_to_end": _end_to_end([setup_s], closed, opened, peak_rss_mib),
        "per_layer": per_layer,
        "raw": {
            "setup_s": [setup_s],
            "closed_segments": _closed_raw(closed),
            "traced_segments": _closed_raw(traced),
            "open": opened,
            "traced_ops": ops,
            "traced_spans": len(recorder.spans),
        },
    }
