"""``repro reconfigure``: change the tree shape mid-run.

Epoch-based online reconfiguration serves reads and writes on dual
quorums throughout the transition, optionally under a chaos scenario,
with the invariant checker armed across the epoch boundary.
"""

from __future__ import annotations

from repro.commands import options


def _print_reconfigure(args) -> None:
    from repro.analysis.tables import format_table

    result, label = options.run_simulation(args)
    outcome = result.reconfiguration
    checker = result.invariants
    assert outcome is not None and checker is not None
    summary = result.summary()
    availability = result.window_read_availability(
        outcome.started_at, outcome.finished_at
    )
    rows: list[list] = [
        ["status", outcome.status.value],
        ["target tree", outcome.new_tree.spec()],
        ["epoch", outcome.epoch],
        ["rolled back", "yes" if outcome.rolled_back else "no"],
        ["keys migrated", f"{outcome.keys_migrated}/{outcome.keys_total}"],
        ["transition window",
         f"t = {outcome.started_at:g} .. {outcome.finished_at:g}"],
        ["window read availability",
         "-" if availability is None else round(availability, 4)],
        ["read availability (run)", round(summary["read_availability"], 4)],
        ["write availability (run)", round(summary["write_availability"], 4)],
        ["invariants checked", checker.checked],
        ["invariant violations", len(checker.violations)],
    ]
    print(format_table(
        ["quantity", "value"], rows,
        title=f"{label}: reconfigure at t = {args.reshape_at:g}, "
              f"seed {args.seed}",
    ))
    for violation in checker.violations[:5]:
        print(f"  VIOLATION: {violation}")


def register(sub, name: str) -> None:
    parser = sub.add_parser(
        name,
        help="change the tree shape mid-run (online dual-quorum epoch "
             "transition) with invariants armed",
    )
    parser.add_argument(
        "--target", dest="reshape_spec", default=None, metavar="SPEC",
        help="target tree spec (default: a fault-aware plan from the "
             "tuning advisor and detector evidence)",
    )
    parser.add_argument(
        "--at", dest="reshape_at", type=float, default=200.0, metavar="T",
        help="simulated time at which the reconfiguration launches",
    )
    options.add_options(
        parser, "run", "max_attempts", "chaos", "fault", operations=1000,
    )
    parser.set_defaults(run=_print_reconfigure, check_invariants=True)
