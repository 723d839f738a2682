"""Command-line interface: regenerate the paper's tables from a terminal.

``python -m repro <command>``:

* ``example``   — Table 1 and the Section 3.4 worked example;
* ``fig2``      — Figure 2 communication-cost series;
* ``fig3``      — Figure 3 read-load series;
* ``fig4``      — Figure 4 write-load series;
* ``survey``    — the Section 1 related-work survey;
* ``analyse``   — analyse an arbitrary tree spec (e.g. ``1-3-5``);
* ``sweep``     — an arbitrary-quantity configuration sweep
  (``--jobs N`` shards size runs across a process pool);
* ``availability`` — exact / Monte-Carlo availability of a spec or protocol
  (``--samples`` / ``--seed`` reach the estimator; ``--jobs N`` shards the
  Monte-Carlo sampling across a process pool);
* ``tune``      — recommend a tree for a given n / p / read fraction;
* ``simulate``  — run the discrete-event simulator and print measurements
  (``--repeats R --jobs N`` fans independently seeded repeats across a
  process pool and reports the merged measurements; ``--retry-policy`` /
  ``--backoff`` select the coordinator's retry-delay schedule and
  ``--detector`` turns on suspicion-aware quorum selection);
* ``shard``     — run a sharded multi-object keyspace: a router
  partitions the keys onto N shards, each shard runs its own replica
  group, and a load balancer spreads traffic over per-shard coordinator
  pools (``--repeats R --jobs N`` fans independently seeded repeats
  across a process pool, merged shard-wise and bit-identical to serial);
* ``chaos``     — run a chaos scenario (flaky links, rolling restarts,
  stragglers, partition flapping, mass crash) with the safety invariant
  checker armed, and report availability, recovery behaviour and
  failure-detector counters;
* ``reconfigure`` — change the tree shape mid-run: epoch-based online
  reconfiguration serves reads and writes on dual quorums throughout the
  transition, optionally under a chaos scenario, with the invariant
  checker armed across the epoch boundary;
* ``trace``     — run the simulator with tracing on and export the span
  stream (one JSON object per line) plus message counters;
* ``report``    — per-phase latency breakdown + flame summary, either for
  a fresh traced run or from a previously exported JSONL trace;
* ``all``       — everything above with default parameters.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

# No module-level ``repro.*`` import: every ``repro serve`` child executes
# this file, so each handler imports what it calls and each subparser what
# its ``choices=`` need (DESIGN §2.16).


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


def _print_analysis(spec: str, p: float) -> None:
    from repro.analysis.tables import format_table
    from repro.core import analyse, from_spec

    tree = from_spec(spec)
    print(tree.describe())
    metrics = analyse(tree, p=p)
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
        title=f"analysis of {spec} at p = {p}",
    ))


def _print_sweep(quantities: Sequence[str], sizes: Sequence[int] | None,
                 p: float, jobs: int) -> None:
    """``repro sweep``: arbitrary-quantity configuration sweep via the runner."""
    from repro.analysis.sweeps import DEFAULT_SIZES
    from repro.analysis.tables import format_series
    from repro.runner import ProgressPrinter, parallel_sweep

    if sizes is None:
        sizes = DEFAULT_SIZES
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


def _print_availability(spec: str, protocol: str | None, n: int,
                        probabilities: Sequence[float], samples: int,
                        seed: int | None, jobs: int = 1) -> None:
    """Read/write availability of a tree spec or zoo protocol.

    Systems small enough for the exact computation report it; larger ones
    fall back to the Monte-Carlo estimator, parameterised by ``samples`` and
    ``seed`` (both plumbed through the QuorumSystem layer to the packed
    bitset kernel).  With ``jobs > 1`` the estimate always runs the chunked
    Monte-Carlo path, sharded across a process pool — bit-identical to the
    same chunked estimate at ``jobs = 1``.
    """
    from repro.analysis.tables import format_table
    from repro.core import from_spec
    from repro.core.protocol import ArbitraryProtocol
    from repro.protocols.zoo import quorum_system
    from repro.quorums.system import CachedQuorumSystem

    if protocol is None or protocol == "arbitrary-spec":
        system = CachedQuorumSystem(ArbitraryProtocol(from_spec(spec)))
        label = f"availability of {spec}"
        ref = ("tree", spec)
    else:
        system = CachedQuorumSystem(quorum_system(protocol, n or 16))
        label = f"availability of {system.name} (n = {system.n})"
        ref = ("protocol", protocol, n or 16)
    if jobs > 1:
        import random as _random

        from repro.runner import parallel_availability

        master = _random.randrange(2**63) if seed is None else seed
        rows = [
            [p,
             round(parallel_availability(
                 ref, p, "read", samples=samples, seed=master, jobs=jobs), 6),
             round(parallel_availability(
                 ref, p, "write", samples=samples, seed=master, jobs=jobs), 6)]
            for p in probabilities
        ]
        title = (f"{label} (Monte-Carlo, samples = {samples}, "
                 f"seed = {master}, jobs = {jobs})")
    else:
        rows = [
            [p,
             round(system.availability(p, "read", samples=samples, seed=seed), 6),
             round(system.availability(p, "write", samples=samples, seed=seed), 6)]
            for p in probabilities
        ]
        title = f"{label} (samples = {samples}, seed = {seed})"
    print(format_table(
        ["p", "read availability", "write availability"], rows, title=title,
    ))


def _print_tuning(n: int, p: float, read_fraction: float) -> None:
    from repro.analysis.tables import format_table
    from repro.core.tuning import recommend

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


def _retry_policy_spec(kind: str | None, backoff: str | None):
    """Build a :class:`RetryPolicySpec` from --retry-policy / --backoff.

    ``--backoff`` takes ``key=value`` pairs (``base``, ``factor``, ``cap``,
    ``jitter``), comma-separated; giving it without ``--retry-policy``
    implies the exponential policy.
    """
    if kind is None and backoff is None:
        return None
    from repro.fault.retry import RetryPolicySpec

    if kind is None:
        kind = "exponential"
    fields = {
        "base": 1.0 if kind == "exponential" else 0.0,
        "factor": 2.0,
        "cap": 60.0,
        "jitter": 0.0,
    }
    if backoff:
        for part in backoff.split(","):
            name, sep, value = part.partition("=")
            name = name.strip()
            if not sep or name not in fields:
                raise SystemExit(
                    f"invalid --backoff component {part!r}: expected "
                    "key=value with key in base/factor/cap/jitter"
                )
            fields[name] = float(value)
    return RetryPolicySpec(kind=kind, **fields)


def _from_options(cls, args, **forced):
    """Dataclass ``cls`` from the parsed options stored under its field names.

    An option reaches a field through its ``dest`` (``--scenario`` is
    stored as ``chaos``, ``--at`` as ``reshape_at``, ``--zipf`` as
    ``zipf_s``, ...; values a command forces, such as ``trace``, are its
    parser defaults), after ``--retry-policy`` / ``--backoff`` are folded
    into the one ``retry_policy`` spec.  Fields the command has no option
    for keep ``cls``'s default unless ``forced``.
    """
    from dataclasses import fields

    retry_policy = _retry_policy_spec(
        getattr(args, "retry_policy", None), getattr(args, "backoff", None)
    )
    given = vars(args) | {"retry_policy": retry_policy} | forced
    return cls(**{
        field.name: given[field.name]
        for field in fields(cls) if field.name in given
    })


def _sim_params(args):
    """The :class:`SimParams` record a parsed simulation command describes."""
    from repro.runner.tasks import SimParams

    return _from_options(SimParams, args)


def _print_simulation(args) -> None:
    from repro.analysis.tables import format_table
    from repro.core import analyse
    from repro.runner.tasks import build_sim_config
    from repro.sim import simulate

    operations, p, seed = args.operations, args.p, args.seed
    protocol, repeats, jobs = args.protocol, args.repeats, args.jobs
    # build_sim_config is the single source of the simulation defaults, so
    # this run and the parallel runner's workers build identical configs.
    params = _sim_params(args)
    config, label = build_sim_config(params)
    reconfiguration = None
    if repeats > 1:
        from repro.runner import (
            ProgressPrinter,
            merge_monitors,
            parallel_simulations,
        )

        monitors = parallel_simulations(
            params, repeats, jobs=jobs,
            progress=ProgressPrinter("simulate") if jobs > 1 else None,
        )
        summary = merge_monitors(monitors).summary()
        messages: object = "-"
        run_title = (f"{label}: {operations} ops x {repeats} repeats, "
                     f"p = {p}, master seed {seed}, jobs {jobs}")
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
    rows: list[list] = []
    if protocol is None or protocol == "arbitrary-spec":
        metrics = analyse(config.tree, p=min(p, 1.0))
        rows = [
            ["read cost", round(summary["read_cost"], 3), metrics.read_cost],
            ["write cost", round(summary["write_cost"], 3),
             round(metrics.write_cost_avg, 3)],
            # A write also runs the Section 3.2.2 version round against a
            # read quorum, so the replicas it actually contacts are the
            # write quorum plus a read quorum's worth.
            ["write cost (total)", round(summary["write_cost_total"], 3),
             round(metrics.write_cost_avg + metrics.read_cost, 3)],
            ["read load", round(summary["read_load"], 3),
             round(metrics.read_load, 3)],
            ["write load", round(summary["write_load"], 3),
             round(metrics.write_load, 3)],
            ["read availability", round(summary["read_availability"], 3),
             round(metrics.read_availability, 3)],
            ["write availability", round(summary["write_availability"], 3),
             round(metrics.write_availability, 3)],
            ["messages", messages, "-"],
        ]
    else:
        system = config.system
        assert system is not None
        rows = [
            ["read cost", round(summary["read_cost"], 3), "-"],
            ["write cost", round(summary["write_cost"], 3), "-"],
            ["write cost (total)", round(summary["write_cost_total"], 3), "-"],
            ["read load", round(summary["read_load"], 3),
             round(system.load("read"), 3)],
            ["write load", round(summary["write_load"], 3),
             round(system.load("write"), 3)],
            ["read availability", round(summary["read_availability"], 3),
             round(system.availability(min(p, 1.0), "read"), 3)],
            ["write availability", round(summary["write_availability"], 3),
             round(system.availability(min(p, 1.0), "write"), 3)],
            ["messages", messages, "-"],
        ]
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


def _sharded_config(args):
    """The :class:`ShardedConfig` a ``shard`` invocation describes."""
    from repro.shard import ShardedConfig
    from repro.sim.workload import WorkloadSpec

    if args.protocol is None or args.protocol == "arbitrary-spec":
        ref = ("tree", args.spec)
    else:
        ref = ("protocol", args.protocol, args.n or 16)
    return _from_options(
        ShardedConfig, args, systems=(ref,), timeout=8.0,
        workload=_from_options(WorkloadSpec, args, arrival="poisson"),
    )


def _print_shard(args) -> None:
    """``repro shard``: a sharded keyspace run with per-shard breakdown."""
    from repro.analysis.tables import format_table

    config = _sharded_config(args)
    label = (
        f"sharded simulation: {args.shards} shards of "
        f"{'/'.join(str(part) for part in config.systems[0][1:])} "
        f"({args.router} router, {args.keys} keys)"
    )
    if args.repeats > 1:
        from repro.runner import (
            ProgressPrinter,
            merge_sharded_monitors,
            parallel_shard_simulations,
        )

        monitor = merge_sharded_monitors(parallel_shard_simulations(
            config, args.repeats, jobs=args.jobs,
            progress=ProgressPrinter("shard") if args.jobs > 1 else None,
        ))
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


def _print_chaos(args) -> None:
    """``repro chaos``: a scenario run with the invariant checker armed."""
    from repro.analysis.tables import format_table
    from repro.runner.tasks import build_sim_config
    from repro.sim import simulate

    params = _sim_params(args)
    if args.repeats > 1:
        from repro.runner import (
            ProgressPrinter,
            merge_monitors,
            parallel_simulations,
        )

        monitors = parallel_simulations(
            params, args.repeats, jobs=args.jobs,
            progress=ProgressPrinter("chaos") if args.jobs > 1 else None,
        )
        summary = merge_monitors(monitors).summary()
        _, label = build_sim_config(params)
        title = (f"{label}: {args.operations} ops x {args.repeats} repeats, "
                 f"master seed {args.seed}, jobs {args.jobs}")
        extra_rows: list[list] = []
    else:
        config, label = build_sim_config(params)
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


def _print_reconfigure(args) -> None:
    """``repro reconfigure``: a mid-run tree change with invariants armed."""
    from repro.analysis.tables import format_table
    from repro.runner.tasks import build_sim_config
    from repro.sim import simulate

    config, label = build_sim_config(_sim_params(args))
    result = simulate(config)
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


def _run_traced(args) -> tuple:
    """Run one traced simulation from trace/report CLI arguments."""
    from repro.runner.tasks import build_sim_config
    from repro.sim import simulate

    config, label = build_sim_config(_sim_params(args))
    return simulate(config), label


def _print_trace(args) -> None:
    """``repro trace``: run a traced simulation, export JSON Lines."""
    from repro.obs import export_trace

    result, label = _run_traced(args)
    recorder = result.recorder
    path = export_trace(recorder, args.out)
    traces = recorder.traces()
    print(f"{label}: {args.operations} ops, p = {args.p}, seed {args.seed}")
    print(
        f"wrote {path}: {len(traces)} traces, {len(recorder.spans)} spans, "
        f"{sum(len(c) for c in recorder.counters.values())} counter cells"
    )
    open_spans = recorder.open_spans()
    if open_spans:
        print(f"WARNING: {len(open_spans)} spans never finished")


def _print_report(args) -> None:
    """``repro report``: per-phase breakdown + flame summary + counters."""
    from repro.obs import (
        flame_summary,
        load_trace,
        phase_breakdown,
        render_counters,
        render_phase_breakdown,
        summaries_of,
    )

    if args.trace_file is not None:
        recorder = load_trace(args.trace_file)
        print(f"trace report for {args.trace_file}")
    else:
        result, label = _run_traced(args)
        recorder = result.recorder
        summary = result.summary()
        print(f"{label}: {args.operations} ops, p = {args.p}, "
              f"seed {args.seed}")
        print(
            f"availability: read {summary['read_availability']:.3f} "
            f"write {summary['write_availability']:.3f}; "
            f"mean latency: ok {summary['read_latency_mean']:.2f}/"
            f"{summary['write_latency_mean']:.2f} "
            f"failed {summary['failure_latency_mean']:.2f}"
        )
    print()
    print("per-phase latency breakdown")
    print(render_phase_breakdown(phase_breakdown(recorder.finished_spans())))
    print()
    print(flame_summary(recorder))
    print()
    print(render_counters(recorder))
    metric_summaries = summaries_of(recorder)
    if metric_summaries:
        print()
        print("metrics")
        for name, stats in sorted(metric_summaries.items()):
            print(
                f"  {name:<18} count {int(stats['count']):>7}  "
                f"mean {stats['mean']:>9.3f}  min {stats['min']:>8.3f}  "
                f"max {stats['max']:>9.3f}"
            )


def _print_profile(args) -> None:
    """``repro profile``: cProfile hotspots + obs phase attribution.

    Profiles a saturated single-group run (the inner-ring acceptance
    workload by default) so the top of the table is the simulator's hot
    path, not warm-up.  See :mod:`repro.sim.profiling` for why the
    phase attribution comes from a second, traced run.
    """
    from repro.core.builder import from_spec
    from repro.sim.engine import SimulationConfig
    from repro.sim.profiling import profile_simulation
    from repro.sim.workload import WorkloadSpec

    config = SimulationConfig(
        tree=from_spec(args.spec),
        workload=WorkloadSpec(
            operations=args.operations,
            read_fraction=args.read_fraction,
            keys=args.keys,
            arrival="poisson",
            rate=args.rate,
            zipf_s=args.zipf,
        ),
        clients=args.clients,
        service_time=args.service_time,
        timeout=args.timeout,
        seed=args.seed,
        batch_window=args.batch_window,
        leases=args.leases,
    )
    report = profile_simulation(
        config, sort=args.sort, limit=args.limit,
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


def _add_fault_arguments(parser) -> None:
    """Fault-layer options shared by ``simulate`` and ``chaos``."""
    parser.add_argument(
        "--retry-policy", choices=("fixed", "exponential"), default=None,
        help="coordinator retry-delay schedule (default: legacy immediate "
             "retry)",
    )
    parser.add_argument(
        "--backoff", default=None, metavar="KEY=VALUE[,...]",
        help="backoff parameters (base/factor/cap/jitter), e.g. "
             "'base=1,factor=2,cap=30,jitter=0.2'; implies "
             "--retry-policy exponential",
    )
    parser.add_argument(
        "--detector", action="store_true",
        help="attach the suspicion-based failure detector so quorum "
             "selection avoids suspected sites",
    )
    parser.add_argument(
        "--batch-window", type=float, default=0.0, metavar="W",
        help="coordinator batching window in simulated time units: "
             "operations arriving within W of the first are coalesced "
             "per key — same-key reads share one quorum read, writes "
             "issue in submission order at flush (0 = off, the "
             "legacy per-operation path)",
    )
    parser.add_argument(
        "--leases", action="store_true",
        help="cache read results per key as leases: repeat reads of a "
             "hot key are served without quorum traffic until a "
             "conflicting write or a liveness-epoch change revokes "
             "the lease",
    )


def _add_reshape_arguments(parser) -> None:
    """Mid-run reconfiguration options for ``simulate``."""
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


def _add_protocol_arguments(
    parser, help: str, n_help: str = "replica count for --protocol"
) -> None:
    """``--protocol`` / ``--n``: where a subparser loads the zoo's names."""
    from repro.protocols.zoo import PROTOCOL_NAMES

    parser.add_argument(
        "--protocol", choices=PROTOCOL_NAMES, default=None, help=help
    )
    parser.add_argument("--n", type=int, default=0, help=n_help)


def _add_repeat_arguments(parser, merged: str) -> None:
    """``--repeats`` / ``--jobs`` of the commands the runner can fan out."""
    parser.add_argument(
        "--repeats", type=int, default=1,
        help=f"independently seeded repeats ({merged})",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes to fan repeats across",
    )


def _add_trace_sim_arguments(parser) -> None:
    """Simulation options shared by ``trace`` and ``report``."""
    parser.set_defaults(trace=True)
    parser.add_argument("spec", nargs="?", default="1-3-5")
    parser.add_argument("--operations", type=int, default=500)
    parser.add_argument("--read-fraction", type=float, default=0.5)
    parser.add_argument("--p", type=float, default=1.0,
                        help="per-replica availability (1.0 = no failures)")
    parser.add_argument("--drop", type=float, default=0.0,
                        help="message drop probability in [0, 1]")
    parser.add_argument("--max-attempts", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    _add_protocol_arguments(
        parser, "simulate a zoo protocol instead of an explicit tree spec"
    )


def _run_serve(args) -> int:
    """``repro serve``: run one replica site process until killed."""
    import asyncio

    from repro.runtime.siteserver import serve_site

    try:
        asyncio.run(
            serve_site(
                args.sid,
                host=args.host,
                port=args.port,
                service_time=args.service_time,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


def _run_cluster(args) -> int:
    """``repro cluster``: real processes, real sockets, optional kill -9."""
    import asyncio
    import json

    from repro.runtime.cluster import KVFrontend, LocalCluster, run_traffic

    async def drive() -> int:
        cluster = LocalCluster(
            spec=args.spec,
            timeout=args.timeout,
            max_attempts=args.max_attempts,
            seed=args.seed,
        )
        await cluster.start()
        print(
            f"cluster up: spec={args.spec} sites={cluster.n} "
            f"ports={[site.port for site in cluster.sites]}",
            flush=True,
        )
        exit_code = 0
        try:
            report = await run_traffic(
                cluster,
                operations=args.operations,
                read_fraction=args.read_fraction,
                keys=args.keys,
                seed=args.seed,
                kill_after_ops=args.kill_after_ops,
                kill_site=args.kill_site,
            )
            summary = report.summary()
            if report.killed_site is not None:
                print(
                    f"SIGKILLed site {report.killed_site} after "
                    f"{report.kill_after_ops} ops; post-kill reads "
                    f"{report.post_kill_reads - report.post_kill_read_failures}"
                    f"/{report.post_kill_reads} succeeded",
                    flush=True,
                )
            print(json.dumps(summary, indent=2))
            # Gate: every read must succeed — including every read issued
            # after the kill (writes may legitimately lose their quorum).
            if report.read_failures or (
                report.killed_site is not None
                and report.post_kill_read_failures
            ):
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


# One registrar per command: it adds the command's subparser, importing
# what its ``choices=`` need, with the handler as the ``run`` default.


def _add_example(sub, name: str) -> None:
    parser = sub.add_parser(name, help="Table 1 + the Section 3.4 example")
    parser.set_defaults(run=lambda args: _print_example())


def _add_figure(sub, name: str) -> None:
    fig_parser = sub.add_parser(name, help=f"regenerate {name} series")
    fig_parser.add_argument("--p", type=float, default=0.7)
    fig_parser.set_defaults(run=lambda args: _print_figure(args.command, args.p))


def _add_survey(sub, name: str) -> None:
    survey_parser = sub.add_parser(name, help="related-work survey")
    survey_parser.add_argument("--n", type=int, default=121)
    survey_parser.set_defaults(run=lambda args: _print_survey(args.n))


def _add_analyse(sub, name: str) -> None:
    analyse_parser = sub.add_parser(name, help="analyse a tree spec")
    analyse_parser.add_argument("spec", help="tree spec, e.g. 1-3-5")
    analyse_parser.add_argument("--p", type=float, default=0.9)
    analyse_parser.set_defaults(
        run=lambda args: _print_analysis(args.spec, args.p)
    )


def _add_sweep(sub, name: str) -> None:
    sweep_parser = sub.add_parser(
        name, help="configuration sweep over arbitrary quantities"
    )
    sweep_parser.add_argument(
        "--quantities", nargs="+", default=["read_cost", "write_cost"],
        help="ConfigPoint attribute names to sweep",
    )
    sweep_parser.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help="replica counts on the x-axis (default: the figures' range)",
    )
    sweep_parser.add_argument("--p", type=float, default=0.7)
    sweep_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes to shard size runs across",
    )
    sweep_parser.set_defaults(run=lambda args: _print_sweep(
        args.quantities, args.sizes, args.p, args.jobs,
    ))


def _add_availability(sub, name: str) -> None:
    avail_parser = sub.add_parser(
        name, help="read/write availability of a spec or zoo protocol",
    )
    avail_parser.add_argument("spec", nargs="?", default="1-3-5")
    avail_parser.add_argument(
        "--p", type=float, nargs="+", default=[0.5, 0.7, 0.9, 0.95, 0.99],
        help="per-replica availabilities to evaluate",
    )
    avail_parser.add_argument(
        "--samples", type=int, default=100_000,
        help="Monte-Carlo samples (used when the system is too large "
             "for the exact computation)",
    )
    avail_parser.add_argument(
        "--seed", type=int, default=0,
        help="Monte-Carlo seed (pass -1 for fresh randomness)",
    )
    _add_protocol_arguments(
        avail_parser, "evaluate a zoo protocol instead of a tree spec",
        n_help="replica count for --protocol (snapped to an admissible size)",
    )
    avail_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes; > 1 shards the Monte-Carlo sampling",
    )
    avail_parser.set_defaults(run=lambda args: _print_availability(
        args.spec, args.protocol, args.n, args.p, args.samples,
        seed=None if args.seed < 0 else args.seed, jobs=args.jobs,
    ))


def _add_tune(sub, name: str) -> None:
    tune_parser = sub.add_parser(name, help="recommend a tree shape")
    tune_parser.add_argument("--n", type=int, default=48)
    tune_parser.add_argument("--p", type=float, default=0.9)
    tune_parser.add_argument("--read-fraction", type=float, default=0.5)
    tune_parser.set_defaults(
        run=lambda args: _print_tuning(args.n, args.p, args.read_fraction)
    )


def _add_simulate(sub, name: str) -> None:
    sim_parser = sub.add_parser(name, help="run the simulator")
    sim_parser.add_argument("spec", nargs="?", default="1-3-5")
    sim_parser.add_argument("--operations", type=int, default=2000)
    sim_parser.add_argument("--read-fraction", type=float, default=0.5)
    sim_parser.add_argument("--p", type=float, default=1.0,
                            help="per-replica availability (1.0 = no failures)")
    sim_parser.add_argument("--seed", type=int, default=0)
    _add_protocol_arguments(
        sim_parser,
        "simulate a zoo protocol instead of an explicit tree spec "
        "(sized via --n, or to match the spec's replica count)",
        n_help="replica count for --protocol (snapped to an admissible size)",
    )
    _add_repeat_arguments(sim_parser, "merged measurements reported")
    _add_fault_arguments(sim_parser)
    _add_reshape_arguments(sim_parser)
    sim_parser.set_defaults(run=_print_simulation)


def _add_shard(sub, name: str) -> None:
    from repro.shard import BALANCER_POLICIES, ROUTER_KINDS

    shard_parser = sub.add_parser(
        name,
        help="run a sharded multi-object keyspace over per-shard replica "
             "groups",
    )
    shard_parser.add_argument(
        "spec", nargs="?", default="1-3-5",
        help="per-shard tree spec (every shard runs one replica group)",
    )
    shard_parser.add_argument("--shards", type=int, default=4)
    _add_protocol_arguments(
        shard_parser, "run shards on a zoo protocol instead of a tree spec"
    )
    shard_parser.add_argument("--operations", type=int, default=2000)
    shard_parser.add_argument("--read-fraction", type=float, default=0.5)
    shard_parser.add_argument(
        "--keys", type=int, default=1024,
        help="global keyspace size the router partitions",
    )
    shard_parser.add_argument(
        "--zipf", dest="zipf_s", type=float, default=0.0,
        help="Zipf skew of key popularity (0 = uniform)",
    )
    shard_parser.add_argument(
        "--rate", type=float, default=0.25,
        help="aggregate Poisson arrival rate (ops per time unit)",
    )
    shard_parser.add_argument(
        "--diurnal-period", type=float, default=0.0,
        help="diurnal cycle length in simulated time units (0 = constant "
             "rate)",
    )
    shard_parser.add_argument(
        "--diurnal-amplitude", type=float, default=0.0,
        help="relative diurnal swing in [0, 1]",
    )
    shard_parser.add_argument(
        "--router", choices=ROUTER_KINDS, default="hash",
        help="keyspace partitioning scheme",
    )
    shard_parser.add_argument("--router-seed", type=int, default=0,
                              help="hash-placement seed")
    shard_parser.add_argument(
        "--balancer", choices=BALANCER_POLICIES, default="round-robin",
        help="per-shard coordinator-pool policy",
    )
    shard_parser.add_argument("--clients-per-shard", type=int, default=1)
    shard_parser.add_argument(
        "--p", type=float, default=1.0,
        help="per-replica availability (1.0 = no failures)",
    )
    shard_parser.add_argument(
        "--regions", type=int, default=0,
        help="spread each shard's replicas over this many latency regions "
             "(0 = uniform latency)",
    )
    shard_parser.add_argument(
        "--drop", dest="drop_probability", type=float, default=0.0,
        help="message drop probability in [0, 1]",
    )
    shard_parser.add_argument(
        "--service-time", type=float, default=0.0,
        help="per-message replica processing time (adds queueing)",
    )
    shard_parser.add_argument("--seed", type=int, default=0)
    _add_repeat_arguments(shard_parser, "merged shard-wise")
    _add_fault_arguments(shard_parser)
    shard_parser.set_defaults(run=_print_shard)


def _add_chaos(sub, name: str) -> None:
    from repro.fault.scenarios import CHAOS_SCENARIOS

    chaos_parser = sub.add_parser(
        name,
        help="run a chaos scenario with the safety invariant checker armed",
    )
    chaos_parser.add_argument("spec", nargs="?", default="1-3-5")
    chaos_parser.add_argument(
        "--scenario", dest="chaos", choices=CHAOS_SCENARIOS + ("all",),
        default="all", help="which failure scenario to inject",
    )
    chaos_parser.add_argument("--operations", type=int, default=1000)
    chaos_parser.add_argument("--read-fraction", type=float, default=0.5)
    chaos_parser.add_argument(
        "--p", type=float, default=1.0,
        help="per-replica Bernoulli availability composed under the chaos",
    )
    chaos_parser.add_argument("--seed", type=int, default=0)
    chaos_parser.add_argument("--max-attempts", type=int, default=4)
    chaos_parser.add_argument(
        "--horizon", dest="chaos_horizon", type=float, default=1000.0,
        help="simulated time the scenario keeps injecting failures for",
    )
    _add_protocol_arguments(
        chaos_parser,
        "run the chaos against a zoo protocol instead of a tree spec",
    )
    _add_repeat_arguments(chaos_parser, "merged measurements reported")
    _add_fault_arguments(chaos_parser)
    chaos_parser.set_defaults(run=_print_chaos, check_invariants=True)


def _add_reconfigure(sub, name: str) -> None:
    from repro.fault.scenarios import CHAOS_SCENARIOS

    reconf_parser = sub.add_parser(
        name,
        help="change the tree shape mid-run (online dual-quorum epoch "
             "transition) with invariants armed",
    )
    reconf_parser.add_argument("spec", nargs="?", default="1-3-5",
                               help="initial tree spec")
    reconf_parser.add_argument(
        "--target", dest="reshape_spec", default=None, metavar="SPEC",
        help="target tree spec (default: a fault-aware plan from the "
             "tuning advisor and detector evidence)",
    )
    reconf_parser.add_argument(
        "--at", dest="reshape_at", type=float, default=200.0, metavar="T",
        help="simulated time at which the reconfiguration launches",
    )
    reconf_parser.add_argument("--operations", type=int, default=1000)
    reconf_parser.add_argument("--read-fraction", type=float, default=0.5)
    reconf_parser.add_argument(
        "--p", type=float, default=1.0,
        help="per-replica availability (1.0 = no failures)",
    )
    reconf_parser.add_argument("--seed", type=int, default=0)
    reconf_parser.add_argument("--max-attempts", type=int, default=4)
    reconf_parser.add_argument(
        "--scenario", dest="chaos", choices=CHAOS_SCENARIOS + ("all",),
        default=None, help="compose a chaos scenario under the reconfiguration",
    )
    reconf_parser.add_argument(
        "--horizon", dest="chaos_horizon", type=float, default=1000.0,
        help="simulated time the chaos scenario keeps injecting for",
    )
    _add_fault_arguments(reconf_parser)
    reconf_parser.set_defaults(run=_print_reconfigure, check_invariants=True)


def _add_trace(sub, name: str) -> None:
    trace_parser = sub.add_parser(
        name, help="run a traced simulation and export JSONL spans"
    )
    _add_trace_sim_arguments(trace_parser)
    trace_parser.add_argument(
        "--out", default="trace.jsonl",
        help="output path for the JSON Lines trace",
    )
    trace_parser.set_defaults(run=_print_trace)


def _add_profile(sub, name: str) -> None:
    profile_parser = sub.add_parser(
        name,
        help="cProfile hotspots + per-phase attribution of a saturated "
             "simulation (the inner-ring tuning loop)",
    )
    profile_parser.add_argument(
        "spec", nargs="?", default="1-3-5",
        help="tree spec to profile against",
    )
    profile_parser.add_argument("--operations", type=int, default=5000)
    profile_parser.add_argument("--read-fraction", type=float, default=0.9)
    profile_parser.add_argument("--keys", type=int, default=128)
    profile_parser.add_argument(
        "--rate", type=float, default=4.0,
        help="aggregate Poisson arrival rate (defaults saturate the group)",
    )
    profile_parser.add_argument("--zipf", type=float, default=1.1)
    profile_parser.add_argument("--clients", type=int, default=4)
    profile_parser.add_argument(
        "--service-time", type=float, default=1.0,
        help="per-message replica processing time (> 0 keeps the group "
             "saturated so the profile shows the steady-state hot path)",
    )
    profile_parser.add_argument("--timeout", type=float, default=800.0)
    profile_parser.add_argument("--seed", type=int, default=2026)
    profile_parser.add_argument("--batch-window", type=float, default=0.0)
    profile_parser.add_argument("--leases", action="store_true")
    profile_parser.add_argument(
        "--sort", choices=("tottime", "cumtime", "ncalls"),
        default="tottime",
        help="pstats sort key (tottime = the inner ring itself)",
    )
    profile_parser.add_argument(
        "--limit", type=int, default=25,
        help="profile rows to print",
    )
    profile_parser.add_argument(
        "--no-phases", action="store_true",
        help="skip the traced re-run and its per-phase attribution",
    )
    profile_parser.set_defaults(run=_print_profile)


def _add_report(sub, name: str) -> None:
    report_parser = sub.add_parser(
        name,
        help="per-phase latency breakdown + flame summary of a traced run",
    )
    _add_trace_sim_arguments(report_parser)
    report_parser.add_argument(
        "--trace-file", default=None,
        help="report on a previously exported JSONL trace instead of "
             "running a fresh simulation",
    )
    report_parser.set_defaults(run=_print_report)


def _add_serve(sub, name: str) -> None:
    serve_parser = sub.add_parser(
        name,
        help="run ONE replica site as a real TCP server (the runtime "
             "backend's per-process entry point)",
    )
    serve_parser.add_argument("--sid", type=int, required=True,
                              help="this site's replica SID (>= 0)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 = ephemeral; the bound port is announced on "
             "stdout as 'REPRO-SITE sid=... port=...')",
    )
    serve_parser.add_argument(
        "--service-time", type=float, default=0.0,
        help="artificial per-message processing delay in seconds",
    )
    serve_parser.set_defaults(run=_run_serve)


def _add_cluster(sub, name: str) -> None:
    cluster_parser = sub.add_parser(
        name,
        help="spawn N local site processes + a coordinator front-end, run "
             "smoke get/put traffic over real TCP, optionally kill -9 a "
             "site mid-run",
    )
    cluster_parser.add_argument(
        "spec", nargs="?", default="1-3",
        help="tree spec for the replica group (e.g. 1-3, 1-3-5)",
    )
    cluster_parser.add_argument("--operations", type=int, default=200)
    cluster_parser.add_argument("--read-fraction", type=float, default=0.8)
    cluster_parser.add_argument("--keys", type=int, default=8)
    cluster_parser.add_argument("--seed", type=int, default=0)
    cluster_parser.add_argument(
        "--timeout", type=float, default=1.0,
        help="coordinator quorum-phase timeout in WALL seconds",
    )
    cluster_parser.add_argument("--max-attempts", type=int, default=4)
    cluster_parser.add_argument(
        "--kill-after-ops", type=int, default=None,
        help="SIGKILL a site after this many measured operations",
    )
    cluster_parser.add_argument(
        "--kill-site", type=int, default=None,
        help="which SID to kill (default: the deepest-level leaf, n-1)",
    )
    cluster_parser.add_argument(
        "--serve", action="store_true",
        help="after the smoke run, keep serving the get/put KV API over "
             "TCP until a client sends a stop frame",
    )
    cluster_parser.add_argument("--serve-port", type=int, default=0)
    cluster_parser.add_argument(
        "--deadline", type=float, default=120.0,
        help="hard wall-clock cap on the whole run (orphan safety net)",
    )

    cluster_parser.set_defaults(run=_run_cluster)


def _print_all(args) -> None:
    _print_example()
    print()
    for fig in ("fig2", "fig3", "fig4"):
        _print_figure(fig, args.p)
    _print_survey(121)


def _add_all(sub, name: str) -> None:
    all_parser = sub.add_parser(name, help="everything, default parameters")
    all_parser.add_argument("--p", type=float, default=0.7)
    all_parser.set_defaults(run=_print_all)


#: command -> registrar, in ``--help`` order.
_COMMANDS = {
    "example": _add_example,
    "fig2": _add_figure,
    "fig3": _add_figure,
    "fig4": _add_figure,
    "survey": _add_survey,
    "analyse": _add_analyse,
    "sweep": _add_sweep,
    "availability": _add_availability,
    "tune": _add_tune,
    "simulate": _add_simulate,
    "shard": _add_shard,
    "chaos": _add_chaos,
    "reconfigure": _add_reconfigure,
    "trace": _add_trace,
    "profile": _add_profile,
    "report": _add_report,
    "serve": _add_serve,
    "cluster": _add_cluster,
    "all": _add_all,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``repro`` parser with every subcommand, or just ``command``.

    ``main`` asks for the one it runs, so a ``repro serve`` child never
    imports what other commands take their ``choices=`` from.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Arbitrary tree-structured replica control protocol "
                    "(ICDCS 2008) — analysis and simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, add in _COMMANDS.items():
        if command is None or name == command:
            add(sub, name)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The command comes first (the top level's only option is --help);
    # anything else gets the full parser, for its help or usage error.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    return args.run(args) or 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
