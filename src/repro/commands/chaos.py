"""``repro chaos``: a chaos scenario with the invariant checker armed.

Flaky links, rolling restarts, stragglers, partition flapping or mass
crash; reports availability, recovery behaviour and failure-detector
counters.
"""

from __future__ import annotations

from repro.commands import options


def _print_chaos(args) -> None:
    from repro.analysis.tables import format_table
    from repro.sim import simulate

    config, label = options.simulation_config(args)
    if args.repeats > 1:
        from repro.runner import merge_monitors

        summary = options.run_repeats(
            args, options.simulated_monitor, merge_monitors
        ).summary()
        title = (f"{label}: {args.operations} ops x {args.repeats} repeats, "
                 f"master seed {args.seed}, jobs {args.jobs}")
        extra_rows: list[list] = []
    else:
        result = simulate(config)
        summary = result.summary()
        title = f"{label}: {args.operations} ops, seed {args.seed}"
        checker = result.invariants
        assert checker is not None
        extra_rows = [
            ["invariants checked", checker.checked],
            ["invariant violations", len(checker.violations)],
        ]
        if result.suspects is not None:
            counters = result.suspects.counters()
            extra_rows += [
                [f"detector {name}", value]
                for name, value in sorted(counters.items())
            ]
    rows = [
        ["read availability", round(summary["read_availability"], 4)],
        ["write availability", round(summary["write_availability"], 4)],
        ["read latency (mean)", round(summary["read_latency_mean"], 3)],
        ["write latency (mean)", round(summary["write_latency_mean"], 3)],
        ["failure latency (mean)", round(summary["failure_latency_mean"], 3)],
    ] + extra_rows
    print(format_table(["quantity", "value"], rows, title=title))


def register(sub, name: str) -> None:
    parser = sub.add_parser(
        name,
        help="run a chaos scenario with the safety invariant checker armed",
    )
    options.add_options(
        parser, "run", "max_attempts", "chaos", "zoo", "fan-out", "fault",
        operations=1000, scenario="all",
    )
    parser.set_defaults(run=_print_chaos, check_invariants=True)
