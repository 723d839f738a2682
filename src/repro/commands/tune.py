"""``repro tune``: recommend a tree for a given n / p / read fraction."""

from __future__ import annotations

from repro.commands import options


def _print_tuning(args) -> None:
    from repro.analysis.tables import format_table
    from repro.core.tuning import recommend

    n, p, read_fraction = args.n, args.p, args.read_fraction
    result = recommend(n, p=p, read_fraction=read_fraction)
    print(f"best tree for n={n}, p={p}, read fraction {read_fraction}:")
    print(f"  {result.tree.spec()}  (score {result.best.score:.4f})")
    print()
    rows = [
        [item.tree.spec()[:40], item.tree.num_physical_levels,
         round(item.score, 4), round(item.read_metric, 4),
         round(item.write_metric, 4)]
        for item in result.alternatives[:8]
    ]
    print(format_table(
        ["tree", "|K_phy|", "score", "read metric", "write metric"],
        rows, title="top candidates",
    ))


def register(sub, name: str) -> None:
    parser = sub.add_parser(name, help="recommend a tree shape")
    options.add_options(parser, "n", "p", "read_fraction", n=48, p=0.9)
    parser.set_defaults(run=_print_tuning)
