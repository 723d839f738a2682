"""Real-process cluster: spawn, serve, SIGKILL, shut down clean.

These tests spawn actual ``repro serve`` child processes and talk to
them over real localhost TCP — the full runtime stack.  One test drives
everything (spawn is the expensive part): a run of the simulator's
workload with the kill -9 chaos injection and reads surviving, the KV
front-end API, and an orphan-free shutdown.
"""

import asyncio
import contextlib
import gc
import os
import shutil
import signal
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.core.builder import from_spec
from repro.runtime import cluster as cluster_module
from repro.runtime.cluster import KVFrontend, LocalCluster, SiteProcess
from repro.runtime.codec import (
    CodecError,
    decode_message,
    encode_message,
    read_frame,
    write_frame,
)
from repro.runtime.siteserver import SiteServer
from repro.sim.engine import SimulationConfig
from repro.sim.failures import BernoulliFailures
from repro.sim.messages import ReadRequest
from repro.sim.workload import WorkloadSpec


async def kv_request(host, port, frames):
    """Tiny client of a :class:`KVFrontend`: send ``frames``, return one
    result per request."""
    reader, writer = await asyncio.open_connection(host, port)
    results = []
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


def test_cluster_serves_sigkill_survives_and_shuts_down_clean():
    # Read-only workload: the kill gate is about READ availability
    # (1-3 write quorums need all three sites).
    config = SimulationConfig(
        tree=from_spec("1-3"),
        workload=WorkloadSpec(operations=30, read_fraction=1.0, keys=4),
        timeout=1.0, max_attempts=4, seed=5,
    )

    async def main():
        cluster = LocalCluster(config=config)
        await cluster.start()
        try:
            # -- basic KV semantics over real TCP --------------------
            put = await cluster.put("greeting", "hello")
            assert put.success and put.timestamp.version == 1
            got = await cluster.get("greeting")
            assert got.success and got.value == "hello"

            # -- front-end API (external-client frames) --------------
            frontend = KVFrontend(cluster)
            await frontend.start()
            results = await kv_request(
                "127.0.0.1", frontend.port,
                [
                    {"kind": "put", "id": 1, "key": "fk", "value": "fv"},
                    {"kind": "get", "id": 2, "key": "fk"},
                    {"kind": "get", "id": 3, "key": "missing"},
                ],
            )
            await frontend.stop()
            assert [r["ok"] for r in results] == [True, True, True]
            assert results[1]["value"] == "fv"
            assert results[1]["version"] == 1
            assert results[2]["value"] is None  # never written

            # -- the config's workload with a mid-run SIGKILL --------
            reported, killed_at = [], []

            def kill_after_ten(outcome):
                reported.append(outcome)
                if len(reported) == 10:
                    cluster.kill_site(2)
                    killed_at.append(cluster.transport.clock.now)

            result = await cluster.run(kill_after_ten)
            assert not cluster.sites[2].alive  # SIGKILL landed
            monitor = result.monitor
            assert monitor.reads.attempted == 30
            assert monitor.reads.failed == 0
            post_kill = [
                outcome for outcome in reported
                if outcome.started_at >= killed_at[0]
            ]
            assert len(post_kill) == 20
            assert all(outcome.success for outcome in post_kill)
            summary = result.summary()
            assert summary["duration"] > 0
            assert summary["read_latency_mean"] > 0
            assert summary["messages_sent"] >= 30

            # -- writes are honestly unavailable without their quorum
            lost = await cluster.put("greeting", "goodbye")
            assert not lost.success
            still = await cluster.get("greeting")
            assert still.success and still.value == "hello"
        finally:
            return_codes = await cluster.stop()
        assert cluster.orphans() == []  # nothing left running
        assert all(rc is not None for rc in return_codes)
        assert return_codes[2] == -9  # the SIGKILLed site

    asyncio.run(asyncio.wait_for(main(), 90.0))


def test_cluster_command_reads_through_a_kill_and_exits_clean(capsys):
    from repro.cli import main

    assert main([
        "cluster", "1-3", "--operations", "30", "--read-fraction", "1.0",
        "--keys", "4", "--seed", "7", "--kill-after-ops", "10",
    ]) == 0
    out = capsys.readouterr().out
    assert "SIGKILLed site 2 after 10 ops" in out
    assert "post-kill reads 20/20 succeeded" in out
    assert "cluster shut down cleanly (no orphans)" in out


def test_cluster_command_exits_1_when_a_read_fails(capsys):
    """``1-1`` has one site: with it SIGKILLed before the run, no read
    finds a quorum, and the gate reads the failures off the monitor."""
    from repro.cli import main

    assert main([
        "cluster", "1-1", "--operations", "3", "--read-fraction", "1.0",
        "--keys", "1", "--kill-after-ops", "0", "--timeout", "0.2",
        "--max-attempts", "1",
    ]) == 1
    out = capsys.readouterr().out
    assert "SIGKILLed site 0 after 0 ops; post-kill reads 0/3 succeeded" in out
    assert "cluster shut down cleanly (no orphans)" in out


@pytest.mark.parametrize("field, value", [
    ("failures", BernoulliFailures(p=0.9)),
    ("latency", 2.0),
    ("drop_probability", 0.01),
    ("duplicate_probability", 0.01),
    ("reshape_at", 10.0),
    ("clients", 2),
])
def test_a_config_tcp_cannot_honour_yet_is_refused(field, value):
    """Refused when the cluster is built, before any site is spawned,
    with the field named; each is a simulator-only model (or, for
    ``clients``, replies a site could not route)."""
    config = SimulationConfig(tree=from_spec("1-3"), **{field: value})
    with pytest.raises(ValueError, match=f"^{field}="):
        LocalCluster(config=config)


def test_service_time_reaches_the_site_processes():
    """``LocalCluster(service_time=...)`` used to be stored and dropped:
    ``SiteProcess.spawn`` never passed ``--service-time``, so the sites
    answered in microseconds.  On ``1-3`` a read asks one site (one
    service period) and a write runs its prepare round (which carries
    the version round) and its commit round one after the other (two)."""
    service_time = 0.02

    async def main():
        cluster = LocalCluster(spec="1-3", timeout=5.0, service_time=service_time)
        await cluster.start()
        try:
            clock = cluster.transport.clock
            started = clock.now
            assert (await cluster.put("k", "v")).success
            put_s = clock.now - started
            started = clock.now
            assert (await cluster.get("k")).value == "v"
            get_s = clock.now - started
        finally:
            await cluster.stop()
        assert cluster.orphans() == []
        assert get_s >= service_time
        assert put_s >= 2 * service_time

    asyncio.run(asyncio.wait_for(main(), 60.0))


def test_a_value_the_wire_cannot_carry_is_refused_and_no_site_link_drops():
    """``put("k", object())`` used to raise ``TypeError`` out of
    ``TcpTransport.send`` while a version reply was being handled inside
    ``Connection.buffer_updated``: asyncio closed the connection to a
    live site (one disconnect, never redialled) and the put failed
    ``UNAVAILABLE``.  Now the put is refused before it takes a lock, and
    a frame the coordinator cannot encode all the same is dropped like a
    lost message.  In-process sites, real sockets."""

    async def main():
        unhandled = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: unhandled.append(context)
        )
        cluster = LocalCluster(spec="1-3", timeout=0.2, max_attempts=2)
        servers = [SiteServer(sid) for sid in range(cluster.n)]
        try:
            for server in servers:
                await server.start()
            await cluster.dial(
                [(server.sid, "127.0.0.1", server.port) for server in servers]
            )
            for value in (object(), 2**64, (1, 2), float("nan")):
                with pytest.raises(CodecError):
                    await cluster.put("k", value)
            with pytest.raises(CodecError):
                await cluster.put(("k",), "v")
            with pytest.raises(CodecError):
                await cluster.get(("k",))
            # A list key crosses the wire intact but no site can index by
            # it; from an external client it is answered, not fatal.
            frontend = KVFrontend(cluster)
            await frontend.start()
            refused = await kv_request(
                "127.0.0.1", frontend.port,
                [{"kind": "get", "id": 1, "key": ["k"]},
                 {"kind": "put", "id": 2, "key": {"k": 1}, "value": "v"}],
            )
            await frontend.stop()
            assert [(r["id"], r["ok"]) for r in refused] == [(1, False), (2, False)]
            assert cluster.locks.stats.granted == 0  # refused before a lock
            assert (await cluster.put("k", "v")).success

            # Past the refusal, with the key's version floor known: the
            # prepare cannot be encoded, so it is lost, and the write
            # fails on its timeouts.
            done = asyncio.get_running_loop().create_future()
            cluster.coordinator.write("k", object(), done.set_result)
            assert not (await asyncio.wait_for(done, 10.0)).success
            assert cluster.transport.stats.dropped_dead > 0
            assert cluster.transport.stats.disconnects == 0
            assert cluster.transport.live_sids() == list(range(cluster.n))
            got = await cluster.get("k")
            assert got.success and got.value == "v"
        finally:
            await cluster.stop()
            for server in servers:
                await server.stop()
        assert unhandled == []

    asyncio.run(asyncio.wait_for(main(), 30.0))


class _StubCluster:
    """What a :class:`KVFrontend` needs of a cluster: awaitable get/put."""

    def __init__(self):
        self.data = {}

    async def get(self, key):
        return SimpleNamespace(
            success=True, value=self.data.get(key), timestamp=None
        )

    async def put(self, key, value):
        self.data[key] = value
        return SimpleNamespace(success=True, value=value, timestamp=None)


def test_frontend_answers_garbage_without_an_unhandled_exception():
    """A non-object frame and a non-UTF-8 payload used to leave
    ``_on_connection`` as ``AttributeError`` / ``CodecError`` — task
    exceptions nobody retrieved.  The first is answered, the second
    closes its own connection, and another client is served throughout."""

    async def main():
        unhandled = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: unhandled.append(context)
        )
        frontend = KVFrontend(_StubCluster())
        await frontend.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", frontend.port
            )
            write_frame(writer, [1, 2, 3])  # a frame, but no object
            write_frame(writer, {"kind": "get", "id": 7, "key": "k"})
            refusal = await read_frame(reader)
            assert refusal["kind"] == "result" and refusal["ok"] is False
            assert "object" in refusal["error"]
            answer = await read_frame(reader)  # same connection, still up
            assert answer["id"] == 7 and answer["ok"] is True

            put, = await kv_request(
                "127.0.0.1", frontend.port,
                [{"kind": "put", "id": 1, "key": "k", "value": "v"}],
            )
            assert put["ok"] is True

            writer.write(struct.pack(">I", 2) + b"\xff\xfe")  # not UTF-8
            await writer.drain()
            assert await reader.read() == b""  # that connection is closed
            writer.close()

            got, = await kv_request(
                "127.0.0.1", frontend.port,
                [{"kind": "get", "id": 2, "key": "k"}],
            )
            assert got["ok"] is True and got["value"] == "v"
        finally:
            await frontend.stop()
        # An unretrieved task exception is reported when the task dies.
        gc.collect()
        await asyncio.sleep(0)
        assert unhandled == []

    asyncio.run(asyncio.wait_for(main(), 30.0))


def test_a_cancelled_frontend_handler_closes_its_writer_and_stays_cancelled():
    """``_on_connection`` used to catch ``CancelledError`` and return, so
    whoever cancelled the handler saw a task that finished cleanly."""

    class Writer:
        closed = False

        def close(self):
            self.closed = True

    async def main():
        frontend = KVFrontend(_StubCluster())
        writer = Writer()
        handler = asyncio.ensure_future(
            # A reader nobody feeds: the handler blocks awaiting a frame.
            frontend._on_connection(asyncio.StreamReader(), writer)
        )
        await asyncio.sleep(0)
        handler.cancel()
        with pytest.raises(asyncio.CancelledError):
            await handler
        assert handler.cancelled() and writer.closed

    asyncio.run(asyncio.wait_for(main(), 30.0))


def test_a_site_that_dies_importing_says_why(tmp_path, monkeypatch):
    """The child's stderr used to go to ``DEVNULL``: a site that could
    not import reported ``rc=1`` and nothing else."""
    shadow = tmp_path / "repro"
    shutil.copytree(
        Path(repro.__file__).parent, shadow,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    (shadow / "runtime" / "siteserver.py").write_text(
        "raise ImportError('shadowed siteserver: no such dependency')\n"
    )
    monkeypatch.setattr(
        cluster_module, "_site_env",
        lambda: {**os.environ, "PYTHONPATH": str(tmp_path)},
    )

    async def main():
        site = SiteProcess(0)
        try:
            with pytest.raises(RuntimeError) as caught:
                await site.spawn()
        finally:
            await site.stop()
        return str(caught.value)

    message = asyncio.run(asyncio.wait_for(main(), 30.0))
    assert "exited before announcing its port (rc=1)" in message
    assert "ImportError: shadowed siteserver: no such dependency" in message


# ---------------------------------------------------------------------
# a site process's scheduling class
# ---------------------------------------------------------------------

linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="SCHED_BATCH is Linux's"
)


@linux_only
def test_a_spawned_site_runs_as_sched_batch():
    async def main():
        site = SiteProcess(0)
        try:
            await site.spawn()
            return os.sched_getscheduler(site.proc.pid)
        finally:
            await site.stop()

    assert asyncio.run(asyncio.wait_for(main(), 30.0)) == os.SCHED_BATCH


@linux_only
def test_an_in_process_site_server_leaves_the_policy_alone():
    before = os.sched_getscheduler(0)

    async def main():
        server = SiteServer(0)
        await server.start()
        try:
            return os.sched_getscheduler(0)
        finally:
            await server.stop()

    assert asyncio.run(asyncio.wait_for(main(), 30.0)) == before
    assert os.sched_getscheduler(0) == before


#: Runs ``serve_site`` in a child whose kernel refuses every change of
#: scheduling class; the child notes each request on stderr.
_REFUSING_SITE = """
import os, sys
from repro.runtime.siteserver import serve_site


def refuse(pid, policy, param):
    print(f"asked {pid} {policy}", file=sys.stderr, flush=True)
    raise OSError("refused")


os.sched_setscheduler = refuse
try:
    serve_site(0)
except KeyboardInterrupt:
    pass
"""


def test_a_site_the_kernel_refuses_sched_batch_still_serves():
    """``serve_site`` runs its own loop until a signal, so it runs in a
    child here; SIGINT ends it cleanly with exit status 0."""
    child = subprocess.Popen(
        [sys.executable, "-c", _REFUSING_SITE],
        env=cluster_module._site_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = child.stdout.readline()
        assert line.startswith("REPRO-SITE sid=0 "), child.stderr.read()
        port = int(line.rsplit("port=", 1)[1])

        async def main():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            write_frame(writer, {"kind": "hello", "sid": -1})
            assert (await read_frame(reader))["sid"] == 0
            write_frame(writer, encode_message(ReadRequest(-1, 0, "k", 3)))
            reply = decode_message(await read_frame(reader))
            writer.close()
            return reply.request_id

        assert asyncio.run(asyncio.wait_for(main(), 30.0)) == 3
        child.send_signal(signal.SIGINT)
        assert child.wait(30) == 0
        asked = child.stderr.read()
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
        child.stderr.close()
    if sys.platform.startswith("linux"):
        assert asked == f"asked 0 {os.SCHED_BATCH}\n"
