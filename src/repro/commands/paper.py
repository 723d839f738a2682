"""``repro example | fig2 | fig3 | fig4 | survey | all``: the paper's tables.

* ``example`` — Table 1 and the Section 3.4 worked example;
* ``fig2`` / ``fig3`` / ``fig4`` — the communication-cost, read-load and
  write-load series of Figures 2–4;
* ``survey`` — the Section 1 related-work survey;
* ``all`` — everything above with default parameters.
"""

from __future__ import annotations

from repro.commands import options


def _print_example() -> None:
    from repro.analysis.tables import format_table
    from repro.core import analyse
    from repro.core.tree import ArbitraryTree

    tree = ArbitraryTree.from_level_counts([0, 3, 5], [1, 0, 4])
    rows = [
        [row.level, row.total, row.physical, row.logical]
        for row in tree.level_table()
    ]
    print(format_table(
        ["level k", "m_k", "m_phy_k", "m_log_k"], rows,
        title="Table 1: the Figure 1 tree",
    ))
    metrics = analyse(tree, p=0.7)
    print()
    print(format_table(
        ["quantity", "value"],
        [
            ["m(R)", 15], ["m(W)", 2],
            ["RD_cost", metrics.read_cost],
            ["RD_availability(0.7)", round(metrics.read_availability, 4)],
            ["L_RD", round(metrics.read_load, 4)],
            ["WR_cost", metrics.write_cost_avg],
            ["WR_availability(0.7)", round(metrics.write_availability, 4)],
            ["L_WR", round(metrics.write_load, 4)],
            ["E[L_RD]", round(metrics.expected_read_load, 4)],
            ["E[L_WR]", round(metrics.expected_write_load, 4)],
        ],
        title="Section 3.4 example (p = 0.7)",
    ))


def _print_figure(which: str, p: float) -> None:
    from repro.analysis.sweeps import (
        figure2_series,
        figure3_series,
        figure4_series,
    )
    from repro.analysis.tables import format_series

    builders = {
        "fig2": (figure2_series, ("read_cost", "write_cost")),
        "fig3": (figure3_series, ("read_load", "expected_read_load")),
        "fig4": (figure4_series, ("write_load", "expected_write_load")),
    }
    build, quantities = builders[which]
    series = build(p=p)
    for quantity in quantities:
        print(format_series(
            series, quantity,
            title=f"{which.upper()}: {quantity} (p = {p})",
        ))
        print()


def _print_survey(n: int) -> None:
    from repro.analysis.related_work import survey
    from repro.analysis.tables import format_table

    rows = [
        [e.protocol, e.reference, e.n, e.read_cost_best, e.read_cost_worst,
         round(e.write_cost, 2), round(e.read_load, 4), round(e.write_load, 4)]
        for e in survey(n)
    ]
    print(format_table(
        ["protocol", "ref", "n", "rd min", "rd max", "wr cost",
         "rd load", "wr load"],
        rows,
        title=f"Section 1 related-work survey at n ~ {n}",
    ))


def _print_all(args) -> None:
    _print_example()
    print()
    for fig in ("fig2", "fig3", "fig4"):
        _print_figure(fig, args.p)
    _print_survey(121)


def register(sub, name: str) -> None:
    if name == "example":
        parser = sub.add_parser(name, help="Table 1 + the Section 3.4 example")
        parser.set_defaults(run=lambda args: _print_example())
    elif name == "survey":
        parser = sub.add_parser(name, help="related-work survey")
        options.add_options(parser, "n", n=121)
        parser.set_defaults(run=lambda args: _print_survey(args.n))
    elif name == "all":
        parser = sub.add_parser(name, help="everything, default parameters")
        options.add_options(parser, "p", p=0.7)
        parser.set_defaults(run=_print_all)
    else:
        parser = sub.add_parser(name, help=f"regenerate {name} series")
        options.add_options(parser, "p", p=0.7)
        parser.set_defaults(
            run=lambda args: _print_figure(args.command, args.p)
        )
