"""``repro cluster``: the simulator's workload over real site processes.

Runs the config its options describe (closed loop, uniform keys, one
client) on a :class:`~repro.runtime.cluster.LocalCluster`, after seeding
every key, optionally kill -9ing a site once ``--kill-after-ops``
outcomes have reported; exits non-zero on a failed read or an orphaned
process.
"""

from __future__ import annotations

from functools import partial

from repro.commands import options


def _run_cluster(parser, args) -> int:
    import asyncio
    import itertools
    import json

    from repro.core.builder import from_spec
    from repro.runtime.cluster import KVFrontend, LocalCluster
    from repro.sim.engine import SimulationConfig
    from repro.sim.workload import WorkloadSpec

    tree = from_spec(args.spec)
    if args.kill_site is not None and not 0 <= args.kill_site < tree.n:
        # Before any site process is spawned.
        parser.error(
            f"argument --kill-site: {args.kill_site} is not a site of "
            f"{args.spec} (0 to {tree.n - 1})"
        )
    config = options.from_options(
        SimulationConfig, args,
        tree=tree, workload=options.from_options(WorkloadSpec, args),
    )
    # Default victim: the highest SID, a deepest-level leaf —
    # quorum-critical for writes on some specs but never for reads.
    victim = args.kill_site if args.kill_site is not None else tree.n - 1

    async def drive() -> int:
        cluster = LocalCluster(config=config)
        await cluster.start()
        print(
            f"cluster up: spec={args.spec} sites={cluster.n} "
            f"ports={[site.port for site in cluster.sites]}",
            flush=True,
        )
        exit_code = 0
        killed_at: list[float] = []  # when the victim was SIGKILLed
        post_kill: list[bool] = []  # success of each read issued after it
        reported = itertools.count()  # outcomes so far: 0 before the run

        def observe(outcome=None) -> None:
            if next(reported) == args.kill_after_ops:
                cluster.kill_site(victim)
                killed_at.append(cluster.transport.clock.now)
            elif killed_at and outcome.op_type == "read" and (
                outcome.started_at >= killed_at[0]
            ):
                post_kill.append(outcome.success)

        try:
            for key_index in range(args.keys):  # unmeasured: seed every key
                await cluster.put(f"k{key_index}", f"seed-{key_index}")
            observe()  # --kill-after-ops 0 kills before the first operation
            result = await cluster.run(observe)
            if killed_at:
                print(
                    f"SIGKILLed site {victim} after {args.kill_after_ops} "
                    f"ops; post-kill reads {sum(post_kill)}/"
                    f"{len(post_kill)} succeeded",
                    flush=True,
                )
            summary = {  # a quantity with no sample is NaN, not JSON
                key: None if value != value else value
                for key, value in result.summary().items()
            }
            print(json.dumps(summary, indent=2))
            # Gate: every read must succeed — including every read issued
            # after the kill (writes may legitimately lose their quorum).
            if result.monitor.reads.failed:
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
