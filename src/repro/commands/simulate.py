"""``repro simulate``: run the discrete-event simulator and print measurements.

``--repeats R --jobs N`` fans independently seeded repeats across a
process pool and reports the merged measurements; ``--retry-policy`` /
``--backoff`` select the coordinator's retry-delay schedule and
``--detector`` turns on suspicion-aware quorum selection.
"""

from __future__ import annotations

from repro.commands import options


def _print_simulation(args) -> None:
    from repro.analysis.tables import format_table
    from repro.core import analyse
    from repro.runner.tasks import build_sim_config
    from repro.sim import simulate

    operations, p, seed = args.operations, args.p, args.seed
    # build_sim_config is the single source of the simulation defaults, so
    # this run and the parallel runner's workers build identical configs.
    params = options.sim_params(args)
    config, label = build_sim_config(params)
    reconfiguration = None
    if args.repeats > 1:
        from repro.runner import merge_monitors, parallel_simulations

        summary = options.run_repeats(
            args, parallel_simulations, params, merge_monitors
        ).summary()
        messages: object = "-"
        run_title = (f"{label}: {operations} ops x {args.repeats} repeats, "
                     f"p = {p}, master seed {seed}, jobs {args.jobs}")
    else:
        result = simulate(config)
        summary = result.summary()
        messages = int(summary["messages_sent"])
        run_title = f"{label}: {operations} ops, p = {p}, seed {seed}"
        if result.reconfiguration is not None:
            availability = result.window_read_availability(
                result.reconfiguration.started_at,
                result.reconfiguration.finished_at,
            )
            reconfiguration = (result.reconfiguration, availability)
    if config.tree is not None:
        metrics = analyse(config.tree, p=min(p, 1.0))
        # A write also runs the Section 3.2.2 version round against a
        # read quorum, so the replicas it actually contacts are the
        # write quorum plus a read quorum's worth.
        closed_form = [
            metrics.read_cost, round(metrics.write_cost_avg, 3),
            round(metrics.write_cost_avg + metrics.read_cost, 3),
            round(metrics.read_load, 3), round(metrics.write_load, 3),
            round(metrics.read_availability, 3),
            round(metrics.write_availability, 3),
        ]
    else:
        system = config.system
        assert system is not None
        closed_form = [
            "-", "-", "-",
            round(system.load("read"), 3), round(system.load("write"), 3),
            round(system.availability(min(p, 1.0), "read"), 3),
            round(system.availability(min(p, 1.0), "write"), 3),
        ]
    quantities = [
        ("read cost", "read_cost"), ("write cost", "write_cost"),
        ("write cost (total)", "write_cost_total"),
        ("read load", "read_load"), ("write load", "write_load"),
        ("read availability", "read_availability"),
        ("write availability", "write_availability"),
    ]
    rows = [
        [quantity, round(summary[key], 3), form]
        for (quantity, key), form in zip(quantities, closed_form)
    ]
    rows.append(["messages", messages, "-"])
    print(format_table(
        ["quantity", "simulated", "closed form"],
        rows,
        title=run_title,
    ))
    if reconfiguration is not None:
        outcome, availability = reconfiguration
        window = "-" if availability is None else f"{availability:.4f}"
        print()
        print(
            f"reconfiguration -> "
            f"{outcome.new_tree.spec()}: {outcome.status.value}, "
            f"epoch {outcome.epoch}, "
            f"{outcome.keys_migrated}/{outcome.keys_total} keys in "
            f"{outcome.duration:g} time units, "
            f"window read availability {window}"
        )


def register(sub, name: str) -> None:
    parser = sub.add_parser(name, help="run the simulator")
    options.add_options(parser, "run", "zoo", "fan-out", "fault")
    parser.add_argument(
        "--reshape-at", type=float, default=0.0, metavar="T",
        help="launch a tree reconfiguration at simulated time T "
             "(0 = off, the legacy fixed-tree path)",
    )
    parser.add_argument(
        "--reshape-spec", default=None, metavar="SPEC",
        help="target tree spec for --reshape-at (default: a fault-aware "
             "plan from the tuning advisor and detector evidence)",
    )
    parser.set_defaults(run=_print_simulation)
