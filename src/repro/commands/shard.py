"""``repro shard``: run a sharded multi-object keyspace.

A router partitions the keys onto N shards, each shard runs its own
replica group, and a load balancer spreads traffic over per-shard
coordinator pools (``--repeats R --jobs N`` fans independently seeded
repeats across a process pool, merged shard-wise and bit-identical to
serial).
"""

from __future__ import annotations

from repro.commands import options


def _sharded_config(args, seed: int | None = None):
    """The :class:`ShardedConfig` a ``shard`` invocation describes, at
    ``seed`` (default ``--seed``)."""
    from repro.shard import ShardedConfig
    from repro.sim.workload import WorkloadSpec

    return options.from_options(
        ShardedConfig, args, systems=(options.system_ref(args),), timeout=8.0,
        workload=options.from_options(WorkloadSpec, args, arrival="poisson"),
        seed=args.seed if seed is None else seed,
    )


def _sharded_monitor(args, seed: int):
    """One ``--repeats`` copy, built at ``seed`` and simulated."""
    from repro.shard import simulate_sharded

    return simulate_sharded(_sharded_config(args, seed)).monitor


def _print_shard(args) -> None:
    from repro.analysis.tables import format_table

    config = _sharded_config(args)
    label = (
        f"sharded simulation: {args.shards} shards of "
        f"{'/'.join(str(part) for part in config.systems[0][1:])} "
        f"({args.router} router, {args.keys} keys)"
    )
    if args.repeats > 1:
        from repro.runner import merge_sharded_monitors

        monitor = options.run_repeats(
            args, _sharded_monitor, merge_sharded_monitors
        )
        summary = monitor.summary()
        throughput: object = "-"
        title = (f"{label}: {args.operations} ops x {args.repeats} repeats, "
                 f"p = {args.p}, master seed {args.seed}, jobs {args.jobs}")
    else:
        from repro.shard import simulate_sharded

        result = simulate_sharded(config)
        monitor = result.monitor
        summary = result.summary()
        throughput = round(summary["ops_per_sec"], 4)
        title = (f"{label}: {args.operations} ops, p = {args.p}, "
                 f"seed {args.seed}")
    shard_rows = [
        [shard, s["reads"] + s["writes"],
         round(s["read_availability"], 3), round(s["write_availability"], 3),
         round(m.reads.latency_percentile(0.5), 2),
         round(m.reads.latency_percentile(0.99), 2)]
        for shard, (s, m) in enumerate(
            zip(monitor.per_shard_summaries(), monitor.shards)
        )
    ]
    print(format_table(
        ["shard", "ops", "rd avail", "wr avail", "rd p50", "rd p99"],
        shard_rows, title=title,
    ))
    print()
    print(format_table(
        ["quantity", "value"],
        [
            ["operations", int(summary["reads"] + summary["writes"])],
            ["ops/sec (simulated)", throughput],
            ["read availability", round(summary["read_availability"], 4)],
            ["write availability", round(summary["write_availability"], 4)],
            ["read latency p50/p99",
             f"{summary['read_latency_p50']:g}/{summary['read_latency_p99']:g}"],
            ["write latency p50/p99",
             f"{summary['write_latency_p50']:g}/"
             f"{summary['write_latency_p99']:g}"],
        ],
        title="aggregate",
    ))


def register(sub, name: str) -> None:
    from repro.shard import BALANCER_POLICIES, ROUTER_KINDS

    parser = sub.add_parser(
        name,
        help="run a sharded multi-object keyspace over per-shard replica "
             "groups",
    )
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--diurnal-period", type=float, default=0.0,
        help="diurnal cycle length in simulated time units (0 = constant "
             "rate)",
    )
    parser.add_argument(
        "--diurnal-amplitude", type=float, default=0.0,
        help="relative diurnal swing in [0, 1]",
    )
    parser.add_argument(
        "--router", choices=ROUTER_KINDS, default="hash",
        help="keyspace partitioning scheme",
    )
    parser.add_argument("--router-seed", type=int, default=0,
                        help="hash-placement seed")
    parser.add_argument(
        "--balancer", choices=BALANCER_POLICIES, default="round-robin",
        help="per-shard coordinator-pool policy",
    )
    parser.add_argument("--clients-per-shard", type=int, default=1)
    parser.add_argument(
        "--regions", type=int, default=0,
        help="spread each shard's replicas over this many latency regions "
             "(0 = uniform latency)",
    )
    options.add_options(
        parser, "spec", "zoo", "operations", "read_fraction", "keys",
        "zipf", "rate", "p", "service_time", "seed", "fan-out", "fault",
        "drop", keys=1024,
    )
    parser.set_defaults(run=_print_shard)
