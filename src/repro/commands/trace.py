"""``repro trace`` and ``repro report``: a traced simulation.

* ``trace`` — run the simulator with tracing on and export the span
  stream (one JSON object per line) plus message counters;
* ``report`` — per-phase latency breakdown + flame summary, either for
  a fresh traced run or from a previously exported JSONL trace.
"""

from __future__ import annotations

from repro.commands import options


def _print_trace(args) -> None:
    from repro.obs import export_trace
    from repro.sim import simulate

    config, label = options.simulation_config(args)
    result = simulate(config)
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
        from repro.sim import simulate

        config, label = options.simulation_config(args)
        result = simulate(config)
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


def register(sub, name: str) -> None:
    if name == "trace":
        parser = sub.add_parser(
            name, help="run a traced simulation and export JSONL spans"
        )
        parser.add_argument(
            "--out", default="trace.jsonl",
            help="output path for the JSON Lines trace",
        )
        parser.set_defaults(run=_print_trace, trace=True)
    else:
        parser = sub.add_parser(
            name,
            help="per-phase latency breakdown + flame summary of a traced "
                 "run",
        )
        parser.add_argument(
            "--trace-file", default=None,
            help="report on a previously exported JSONL trace instead of "
                 "running a fresh simulation",
        )
        parser.set_defaults(run=_print_report, trace=True)
    options.add_options(
        parser, "run", "drop", "max_attempts", "zoo",
        operations=500, max_attempts=3,
    )
