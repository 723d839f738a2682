"""``repro profile``: cProfile hotspots of a saturated simulation."""

from __future__ import annotations

from repro.commands import options


def _profile_config(args):
    """The :class:`SimulationConfig` a ``profile`` invocation describes."""
    from repro.core.builder import from_spec
    from repro.sim.engine import SimulationConfig
    from repro.sim.workload import WorkloadSpec

    return options.from_options(
        SimulationConfig, args, tree=from_spec(args.spec),
        workload=options.from_options(WorkloadSpec, args, arrival="poisson"),
    )


def _print_profile(args) -> None:
    """``repro profile``: cProfile hotspots + obs phase attribution.

    Profiles a saturated single-group run (the inner-ring acceptance
    workload by default) so the top of the table is the simulator's hot
    path, not warm-up.  See :mod:`repro.sim.profiling` for why the
    phase attribution comes from a second, traced run.
    """
    from repro.sim.profiling import profile_simulation

    report = profile_simulation(
        _profile_config(args), sort=args.sort, limit=args.limit,
        phases=not args.no_phases,
    )
    print(
        f"{args.spec}: {args.operations} ops, seed {args.seed}, "
        f"service time {args.service_time:g}, rate {args.rate:g}"
    )
    print(
        f"wall {report.wall_seconds:.2f}s under cProfile — "
        f"{report.events_per_sec:,.0f} events/sec, "
        f"{report.ops_per_sec:,.0f} ops/sec "
        f"(profiler overhead included; the ledger's sim-saturated "
        f"workload has uninstrumented rates)"
    )
    print(report.hotspots)
    if report.phase_breakdown is not None:
        print("per-phase latency breakdown (traced re-run, simulated time)")
        print(report.phase_breakdown)


def register(sub, name: str) -> None:
    parser = sub.add_parser(
        name,
        help="cProfile hotspots + per-phase attribution of a saturated "
             "simulation (the inner-ring tuning loop)",
    )
    # The defaults saturate the group (service time > 0, arrivals faster
    # than it serves), so the profile shows the steady-state hot path.
    options.add_options(
        parser, "spec", "operations", "read_fraction", "keys",
        operations=5000, read_fraction=0.9, keys=128,
    )
    parser.add_argument(
        "--rate", type=float, default=4.0,
        help="aggregate Poisson arrival rate (ops per time unit)",
    )
    parser.add_argument("--zipf", dest="zipf_s", type=float, default=1.1,
                        help="Zipf skew of key popularity (0 = uniform)")
    parser.add_argument(
        "--service-time", type=float, default=1.0,
        help="per-message replica processing time (adds queueing)",
    )
    options.add_options(
        parser, "timeout", "seed", "leases", timeout=800.0, seed=2026,
    )
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument(
        "--sort", choices=("tottime", "cumtime", "ncalls"),
        default="tottime",
        help="pstats sort key (tottime = the inner ring itself)",
    )
    parser.add_argument(
        "--limit", type=int, default=25,
        help="profile rows to print",
    )
    parser.add_argument(
        "--no-phases", action="store_true",
        help="skip the traced re-run and its per-phase attribution",
    )
    parser.set_defaults(run=_print_profile)
