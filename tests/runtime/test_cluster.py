"""Real-process cluster: spawn, serve, SIGKILL, shut down clean.

These tests spawn actual ``repro serve`` child processes and talk to
them over real localhost TCP — the full runtime stack.  One test drives
everything (spawn is the expensive part): smoke traffic, the kill -9
chaos injection with reads surviving, the KV front-end API, and an
orphan-free shutdown.
"""

import asyncio

from repro.runtime.cluster import (
    KVFrontend,
    LocalCluster,
    kv_request,
    percentile,
    run_traffic,
)


def test_cluster_serves_sigkill_survives_and_shuts_down_clean():
    async def main():
        cluster = LocalCluster(spec="1-3", timeout=1.0, max_attempts=4)
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

            # -- smoke traffic with a mid-run SIGKILL ----------------
            # Read-only measured loop: the kill gate is about READ
            # availability (1-3 write quorums need all three sites).
            report = await run_traffic(
                cluster, operations=30, read_fraction=1.0, keys=4,
                seed=5, kill_after_ops=10,
            )
            assert report.killed_site == 2
            assert not cluster.sites[2].alive  # SIGKILL landed
            assert report.reads == 30 and report.read_failures == 0
            assert report.post_kill_reads == 20
            assert report.post_kill_read_failures == 0
            assert report.ops_per_sec > 0
            summary = report.summary()
            assert summary["read_p99_ms"] >= summary["read_p50_ms"] >= 0

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


def test_service_time_reaches_the_site_processes():
    """``LocalCluster(service_time=...)`` used to be stored and dropped:
    ``SiteProcess.spawn`` never passed ``--service-time``, so the sites
    answered in microseconds.  On ``1-3`` a read asks one site (one
    service period) and a write runs its version, prepare and commit
    rounds one after the other (three)."""
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
        assert put_s >= 3 * service_time

    asyncio.run(asyncio.wait_for(main(), 60.0))


def test_percentile_nearest_rank():
    samples = [float(value) for value in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 99) == 99.0
    assert percentile(samples, 100) == 100.0
    assert percentile([], 50) == 0.0
    assert percentile([42.0], 99) == 42.0
