"""``repro sweep``: an arbitrary-quantity configuration sweep."""

from __future__ import annotations

from repro.commands import options


def _print_sweep(args) -> None:
    from repro.analysis.sweeps import DEFAULT_SIZES
    from repro.analysis.tables import format_series
    from repro.runner import ProgressPrinter, parallel_sweep

    quantities, p, jobs = args.quantities, args.p, args.jobs
    sizes = DEFAULT_SIZES if args.sizes is None else args.sizes
    series = parallel_sweep(
        tuple(quantities), sizes=tuple(sizes), p=p, jobs=jobs,
        progress=ProgressPrinter("sweep") if jobs > 1 else None,
    )
    for quantity in quantities:
        print(format_series(
            series, quantity,
            title=f"sweep: {quantity} (p = {p}, jobs = {jobs})",
        ))
        print()


def register(sub, name: str) -> None:
    parser = sub.add_parser(
        name, help="configuration sweep over arbitrary quantities"
    )
    parser.add_argument(
        "--quantities", nargs="+", default=["read_cost", "write_cost"],
        help="ConfigPoint attribute names to sweep",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help="replica counts on the x-axis (default: the figures' range)",
    )
    options.add_options(parser, "p", "jobs", p=0.7)
    parser.set_defaults(run=_print_sweep)
