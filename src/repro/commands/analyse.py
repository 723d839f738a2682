"""``repro analyse <spec>``: the closed forms of an arbitrary tree spec."""

from __future__ import annotations

from repro.commands import options


def _print_analysis(args) -> None:
    from repro.analysis.tables import format_table
    from repro.core import analyse, from_spec

    tree = from_spec(args.spec)
    print(tree.describe())
    metrics = analyse(tree, p=args.p)
    print()
    print(format_table(
        ["quantity", "value"],
        [
            ["read cost", metrics.read_cost],
            ["write cost (min/avg/max)",
             f"{metrics.write_cost_min}/{metrics.write_cost_avg:g}/"
             f"{metrics.write_cost_max}"],
            ["read availability", round(metrics.read_availability, 4)],
            ["write availability", round(metrics.write_availability, 4)],
            ["read load", round(metrics.read_load, 4)],
            ["write load", round(metrics.write_load, 4)],
            ["E[read load]", round(metrics.expected_read_load, 4)],
            ["E[write load]", round(metrics.expected_write_load, 4)],
        ],
        title=f"analysis of {args.spec} at p = {args.p}",
    ))


def register(sub, name: str) -> None:
    parser = sub.add_parser(name, help="analyse a tree spec")
    options.add_option(parser, "spec", nargs=None)  # required here
    options.add_options(parser, "p", p=0.9)
    parser.set_defaults(run=_print_analysis)
