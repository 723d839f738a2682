"""Microbenchmarks of single layers, each driven through its public surface.

They are independent of the workload: a ``--trace 1`` run measures them
once, after its traced phases, so every per-layer metric is present in
every traced run.  ``scale`` shrinks the iteration counts for ``--quick``.
"""

from __future__ import annotations

import asyncio
import json
import random
import statistics
import time
from collections.abc import Callable
from typing import Any

from repro.core.builder import from_spec
from repro.core.protocol import ArbitraryProtocol
from repro.quorums.selection import SelectionIndex
from repro.runtime.cluster import KVFrontend
from repro.runtime.codec import (
    decode_message,
    encode_frame,
    encode_message,
    read_frame,
    write_frame,
)
from repro.runtime.loopback import LoopbackTransport
from repro.runtime.transport import TcpTransport
from repro.sim.coordinator import QuorumCoordinator
from repro.sim.events import Scheduler
from repro.sim.locks import LockManager, LockMode
from repro.sim.messages import (
    AckMessage,
    CommitMessage,
    PrepareMessage,
    ReadReply,
    ReadRequest,
    VersionReply,
    VersionRequest,
    VoteMessage,
)
from repro.sim.network import Network
from repro.sim.replica import Timestamp
from repro.sim.site import Site

from loadgen import percentile
from tcpbench import LedgerSite, start_cluster, stop_cluster
from workloads import TCP_KEYS, TCP_WORKLOADS, TREE_SPEC, VALUE_BYTES, key_name

_BATCHES = 5


def _per_call_ns(run_batch: Callable[[], int]) -> float:
    """Median over batches of (batch wall time ÷ calls in the batch)."""
    samples = []
    for _ in range(_BATCHES):
        started = time.perf_counter_ns()
        calls = run_batch()
        samples.append((time.perf_counter_ns() - started) / calls)
    return statistics.median(samples)


class _NullClock:
    """A clock that never fires: isolates a layer from the event loop."""

    now = 0.0

    def call_later(self, delay: float, callback: Any, arg: Any = None) -> None:
        pass


class _NullTransport:
    """Accepts registrations and swallows every send."""

    clock = _NullClock()

    def register(self, sid: int, endpoint: Any) -> None:
        pass

    def send(self, message: Any) -> None:
        pass

    def bump_liveness_epoch(self) -> None:
        pass


class _Sink:
    """An endpoint that counts what it receives."""

    up = True

    def __init__(self) -> None:
        self.received = 0

    def receive(self, message: Any) -> None:
        self.received += 1


# ---------------------------------------------------------------------
# runtime.codec
# ---------------------------------------------------------------------

_VALUE = "w123".ljust(VALUE_BYTES, ".")
_STAMP = Timestamp(42, 8)
_CODEC_SAMPLES = (
    ReadRequest(-1, 3, "k17", 12345),
    ReadReply(3, -1, "k17", 12345, _VALUE, _STAMP),
    VersionRequest(-1, 3, "k17", 12345),
    VersionReply(3, -1, "k17", 12345, _STAMP),
    PrepareMessage(-1, 3, 777, "k17", _VALUE, _STAMP),
    VoteMessage(3, -1, 777, True),
    CommitMessage(-1, 3, 777),
    AckMessage(3, -1, 777, True),
)


def codec(scale: float) -> dict[str, float]:
    calls = max(200, int(4000 * scale))
    metrics: dict[str, float] = {}
    for message in _CODEC_SAMPLES:
        name = message.type_name
        frame = encode_frame(encode_message(message))
        payload = frame[4:]

        def encode() -> int:
            for _ in range(calls):
                encode_frame(encode_message(message))
            return calls

        def decode() -> int:
            for _ in range(calls):
                decode_message(json.loads(payload))
            return calls

        metrics[f"codec.encode_ns.{name}"] = _per_call_ns(encode)
        metrics[f"codec.decode_ns.{name}"] = _per_call_ns(decode)
        metrics[f"codec.frame_bytes.{name}"] = len(frame)
    return metrics


# ---------------------------------------------------------------------
# sim.site, sim.locks, quorums.selection
# ---------------------------------------------------------------------


def site_handlers(scale: float) -> dict[str, float]:
    """``Site.receive`` with no service time and a transport that drops
    the replies: the handler itself."""
    calls = max(200, int(4000 * scale))
    site = Site(0, _NullTransport(), service_time=0.0)
    keys = [f"k{index}" for index in range(calls)]
    batches = {
        "ReadRequest": [ReadRequest(-1, 0, key, 1) for key in keys],
        "VersionRequest": [VersionRequest(-1, 0, key, 1) for key in keys],
    }
    receive = site.receive

    def deliver(messages: list) -> int:
        for message in messages:
            receive(message)
        return len(messages)

    metrics = {
        f"site.handle_ns.{name}": _per_call_ns(lambda: deliver(messages))
        for name, messages in batches.items()
    }
    # Every prepare needs its own transaction and every commit a
    # prepared one, so the two are timed batch by batch, in turn.
    prepare_ns, commit_ns = [], []
    for batch in range(_BATCHES):
        first = batch * calls
        stamp = Timestamp(first + 1, 8)
        prepares = [
            PrepareMessage(-1, 0, first + i, keys[i], _VALUE, stamp)
            for i in range(calls)
        ]
        commits = [CommitMessage(-1, 0, first + i) for i in range(calls)]
        for messages, samples in ((prepares, prepare_ns), (commits, commit_ns)):
            started = time.perf_counter_ns()
            deliver(messages)
            samples.append((time.perf_counter_ns() - started) / calls)
    metrics["site.handle_ns.PrepareMessage"] = statistics.median(prepare_ns)
    metrics["site.handle_ns.CommitMessage"] = statistics.median(commit_ns)
    return metrics


def locks(scale: float) -> dict[str, float]:
    calls = max(200, int(10000 * scale))
    manager = LockManager(_NullClock())

    def granted(ok: bool) -> None:
        pass

    def uncontended() -> int:
        for txid in range(calls):
            manager.acquire(txid, "k", LockMode.EXCLUSIVE, granted)
            manager.release(txid, "k")
        return calls

    # One exclusive holder and fifteen queued behind it; every pair
    # releases the holder (granting the head) and queues a new waiter.
    waiters = 15
    for txid in range(waiters + 1):
        manager.acquire(txid, "hot", LockMode.EXCLUSIVE, granted)
    holder = [0]

    def contended() -> int:
        for _ in range(calls):
            manager.release(holder[0], "hot")
            holder[0] += 1
            manager.acquire(
                holder[0] + waiters, "hot", LockMode.EXCLUSIVE, granted
            )
        return calls

    return {
        "locks.uncontended_pair_ns": _per_call_ns(uncontended),
        "locks.contended_pair_ns": _per_call_ns(contended),
    }


def selection(scale: float) -> dict[str, float]:
    calls = max(200, int(10000 * scale))
    system = ArbitraryProtocol(from_spec(TREE_SPEC))
    index = SelectionIndex(system)
    rng = random.Random(0)
    everyone = tuple(range(system.tree.n))
    one_dead = everyone[1:]

    def select(op: str, live: tuple[int, ...]) -> Callable[[], int]:
        def run() -> int:
            for _ in range(calls):
                if index.select(op, live, rng) is None:
                    raise RuntimeError(f"no {op} quorum among {live}")
            return calls

        return run

    return {
        "selection.read_ns": _per_call_ns(select("read", everyone)),
        "selection.write_ns": _per_call_ns(select("write", everyone)),
        "selection.degraded_read_ns": _per_call_ns(select("read", one_dead)),
    }


# ---------------------------------------------------------------------
# sim.coordinator over the loopback transport
# ---------------------------------------------------------------------


def coordinator_loopback(scale: float) -> dict[str, float]:
    """CPU per operation of the whole protocol with zero-delay in-process
    delivery on the simulator's scheduler: no codec, no sockets."""
    ops = max(100, int(2000 * scale))
    scheduler = Scheduler()
    transport = LoopbackTransport(scheduler, delay=0.0)
    system = ArbitraryProtocol(from_spec(TREE_SPEC))
    for sid in range(system.tree.n):
        Site(sid, transport)
    coordinator = QuorumCoordinator(
        sid=-1,
        network=transport,
        system=system,
        locks=LockManager(scheduler),
        detector=lambda sid: True,
        rng=random.Random(0),
        writer_id=system.tree.n,
        liveness_epoch=transport.current_liveness_epoch,
    )

    def batch(issue: Callable[[int, Callable], None]) -> float:
        remaining = [ops]

        def done(outcome: Any) -> None:
            if not outcome.success:
                raise RuntimeError(f"loopback operation failed: {outcome}")
            remaining[0] -= 1
            if remaining[0]:
                issue(remaining[0], done)

        started = time.process_time()
        issue(ops, done)
        scheduler.run()
        elapsed = time.process_time() - started
        if remaining[0]:
            raise RuntimeError("loopback batch did not complete")
        return elapsed / ops * 1e6

    def write(index: int, done: Callable) -> None:
        coordinator.write(key_name(index % TCP_KEYS), _VALUE, done)

    def read(index: int, done: Callable) -> None:
        coordinator.read(key_name(index % TCP_KEYS), done)

    write_us = statistics.median(batch(write) for _ in range(_BATCHES))
    read_us = statistics.median(batch(read) for _ in range(_BATCHES))
    return {
        "coordinator.loopback_read_us": read_us,
        "coordinator.loopback_write_us": write_us,
    }


# ---------------------------------------------------------------------
# sim.events, sim.network
# ---------------------------------------------------------------------


def ring_events_per_s(events: int) -> float:
    """A self-rescheduling ring on the bare scheduler: the event core's
    schedule/fire rate, and the host-speed calibration of a result file."""
    scheduler = Scheduler()

    def fire(left: int) -> None:
        if left:
            scheduler.call_later(1.0, fire, left - 1)

    scheduler.call_later(1.0, fire, events - 1)
    started = time.perf_counter()
    scheduler.run()
    return events / (time.perf_counter() - started)


def event_core(scale: float) -> dict[str, float]:
    events = max(2000, int(100_000 * scale))
    rounds = max(1000, int(50_000 * scale))
    sends = max(1000, int(40_000 * scale))

    def never() -> None:
        raise AssertionError("cancelled timeout fired")

    def churn() -> float:
        # The coordinator's pattern: arm a far timeout, cancel it when
        # the operation completes.
        scheduler = Scheduler()

        def fire(left: int) -> None:
            timeout = scheduler.schedule(1_000_000.0, never)
            if left:
                scheduler.call_later(1.0, fire, left - 1)
            timeout.cancel()

        scheduler.call_later(1.0, fire, rounds - 1)
        started = time.perf_counter()
        scheduler.run()
        return scheduler.processed_events / (time.perf_counter() - started)

    def deliver() -> float:
        scheduler = Scheduler()
        network = Network(scheduler, random.Random(0), latency=1.0)
        sink = _Sink()
        network.register(0, sink)
        messages = [ReadRequest(-1, 0, "k0", index) for index in range(sends)]
        started = time.perf_counter()
        for message in messages:
            network.send(message)
        scheduler.run()
        elapsed = time.perf_counter() - started
        if sink.received != sends:
            raise RuntimeError("the simulated network lost messages")
        return sends / elapsed

    return {
        "events.ring_events_per_s": statistics.median(
            ring_events_per_s(events) for _ in range(_BATCHES)
        ),
        "events.churn_events_per_s": statistics.median(
            churn() for _ in range(_BATCHES)
        ),
        "network.deliver_msgs_per_s": statistics.median(
            deliver() for _ in range(_BATCHES)
        ),
    }


# ---------------------------------------------------------------------
# runtime.transport, runtime.cluster (real processes)
# ---------------------------------------------------------------------


class _Inbox:
    """The endpoint of the round-trip probe: resolves one waiter."""

    up = True
    waiter: asyncio.Future | None = None

    def receive(self, message: Any) -> None:
        self.waiter.set_result(message)


async def transport_rtt(scale: float) -> dict[str, float]:
    """Serial ReadRequest→ReadReply round trips through
    ``TcpTransport.send`` to one real site process: the single-node
    baseline of every TCP number."""
    trips = max(100, int(5000 * scale))
    site = LedgerSite(0, service_time=0.0)
    await site.spawn()
    transport = TcpTransport(local_sid=-1)
    try:
        inbox = _Inbox()
        transport.register(-1, inbox)
        await transport.connect(0, site.host, site.port)
        loop = asyncio.get_running_loop()
        samples = []
        for index in range(trips):
            inbox.waiter = loop.create_future()
            started = time.perf_counter()
            transport.send(ReadRequest(-1, 0, "k0", index))
            await inbox.waiter
            samples.append(time.perf_counter() - started)
    finally:
        await transport.close()
        await site.stop()
    return {"transport.rtt_us_p50": percentile(samples, 0.5) * 1e6}


async def cluster_serial(scale: float, seed: int) -> dict[str, float]:
    """One client, one operation in flight: through ``LocalCluster`` and
    through one ``KVFrontend`` connection; the difference is the hop."""
    ops = max(50, int(1000 * scale))
    cluster, _ = await start_cluster(TCP_WORKLOADS["tcp-read-heavy"], seed)
    frontend = KVFrontend(cluster)
    try:
        rng = random.Random(seed)
        keys = [key_name(rng.randrange(TCP_KEYS)) for _ in range(ops)]

        async def timed(call: Callable[[str], Any]) -> float:
            samples = []
            for key in keys:
                started = time.perf_counter()
                if not await call(key):
                    raise RuntimeError(f"serial operation on {key} failed")
                samples.append(time.perf_counter() - started)
            return percentile(samples, 0.5) * 1e3

        async def get(key: str) -> bool:
            return (await cluster.get(key)).success

        async def put(key: str) -> bool:
            return (await cluster.put(key, _VALUE)).success

        get_ms = await timed(get)
        put_ms = await timed(put)

        await frontend.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", frontend.port)

        async def frontend_get(key: str) -> bool:
            write_frame(writer, {"kind": "get", "id": 0, "key": key})
            await writer.drain()
            return (await read_frame(reader))["ok"]

        try:
            frontend_ms = await timed(frontend_get)
        finally:
            writer.close()
            await writer.wait_closed()
    finally:
        await frontend.stop()
        await stop_cluster(cluster)
    return {
        "cluster.serial_get_p50_ms": get_ms,
        "cluster.serial_put_p50_ms": put_ms,
        "frontend.serial_get_p50_ms": frontend_ms,
        "frontend.hop_us": (frontend_ms - get_ms) * 1e3,
    }


async def _real_processes(scale: float, seed: int) -> dict[str, float]:
    return {**await transport_rtt(scale), **await cluster_serial(scale, seed)}


def measure(scale: float, seed: int) -> dict[str, float]:
    """Every workload-independent per-layer metric."""
    return {
        **codec(scale),
        **site_handlers(scale),
        **locks(scale),
        **selection(scale),
        **coordinator_loopback(scale),
        **event_core(scale),
        **asyncio.run(_real_processes(scale, seed)),
    }
