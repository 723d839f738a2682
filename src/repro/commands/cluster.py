"""``repro cluster``: real site processes under smoke traffic over TCP.

Spawns N ``repro serve`` children and a coordinator front-end, optionally
kill -9s a site mid-run; exits non-zero on a failed read or an orphaned
process.
"""

from __future__ import annotations

from functools import partial

from repro.commands import options


def _run_cluster(parser, args) -> int:
    import asyncio
    import json

    from repro.core.builder import from_spec
    from repro.runtime.cluster import KVFrontend, LocalCluster, run_traffic

    n = from_spec(args.spec).n
    if args.kill_site is not None and not 0 <= args.kill_site < n:
        # Before any site process is spawned.
        parser.error(
            f"argument --kill-site: {args.kill_site} is not a site of "
            f"{args.spec} (0 to {n - 1})"
        )

    async def drive() -> int:
        cluster = LocalCluster(
            spec=args.spec,
            timeout=args.timeout,
            max_attempts=args.max_attempts,
            seed=args.seed,
        )
        await cluster.start()
        print(
            f"cluster up: spec={args.spec} sites={cluster.n} "
            f"ports={[site.port for site in cluster.sites]}",
            flush=True,
        )
        exit_code = 0
        try:
            report = await run_traffic(
                cluster,
                operations=args.operations,
                read_fraction=args.read_fraction,
                keys=args.keys,
                seed=args.seed,
                kill_after_ops=args.kill_after_ops,
                kill_site=args.kill_site,
            )
            summary = report.summary()
            if report.killed_site is not None:
                print(
                    f"SIGKILLed site {report.killed_site} after "
                    f"{report.kill_after_ops} ops; post-kill reads "
                    f"{report.post_kill_reads - report.post_kill_read_failures}"
                    f"/{report.post_kill_reads} succeeded",
                    flush=True,
                )
            print(json.dumps(summary, indent=2))
            # Gate: every read must succeed — including every read issued
            # after the kill (writes may legitimately lose their quorum).
            if report.read_failures or (
                report.killed_site is not None
                and report.post_kill_read_failures
            ):
                exit_code = 1
            if args.serve:
                frontend = KVFrontend(cluster, port=args.serve_port)
                await frontend.start()
                print(f"REPRO-KV port={frontend.port}", flush=True)
                await frontend.stop_requested.wait()
                await frontend.stop()
        finally:
            await cluster.stop()
            orphans = cluster.orphans()
            if orphans:
                print(f"orphaned site processes: {orphans}", flush=True)
                exit_code = 1
            else:
                print("cluster shut down cleanly (no orphans)", flush=True)
        return exit_code

    try:
        return asyncio.run(asyncio.wait_for(drive(), args.deadline))
    except KeyboardInterrupt:
        return 130


def register(sub, name: str) -> None:
    parser = sub.add_parser(
        name,
        help="spawn N local site processes + a coordinator front-end, run "
             "smoke get/put traffic over real TCP, optionally kill -9 a "
             "site mid-run",
    )
    options.add_options(
        parser, "spec", "operations", "read_fraction", "keys", "seed",
        "timeout", "max_attempts",
        spec="1-3", operations=200, read_fraction=0.8, keys=8, timeout=1.0,
    )
    parser.add_argument(
        "--kill-after-ops", type=options.non_negative_int, default=None,
        help="SIGKILL a site after this many measured operations",
    )
    parser.add_argument(
        "--kill-site", type=int, default=None,
        help="which SID to kill (default: the deepest-level leaf, n-1)",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="after the smoke run, keep serving the get/put KV API over "
             "TCP until a client sends a stop frame",
    )
    parser.add_argument("--serve-port", type=int, default=0)
    parser.add_argument(
        "--deadline", type=float, default=120.0,
        help="hard wall-clock cap on the whole run (orphan safety net)",
    )
    parser.set_defaults(run=partial(_run_cluster, parser))
