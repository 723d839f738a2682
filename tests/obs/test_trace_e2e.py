"""End-to-end trace test: span trees from a lossy, partitioned simulation.

The acceptance bar for the tracing layer: run a genuinely hostile
simulation (message loss, retries, a mid-run partition) and assert the
emitted trace is well-formed — every span started is finished, every
operation has exactly one root span, retries and attempts nest correctly,
and dropped messages show up in the counters with the same totals the
network's own statistics report.
"""

from repro.cli import main
from repro.core.builder import from_spec
from repro.obs import SpanKind, TraceRecorder, load_trace
from repro.sim.engine import SimulationConfig, build_simulation, simulate
from repro.sim.network import PartitionSpec
from repro.sim.workload import WorkloadSpec


def lossy_config(**overrides) -> SimulationConfig:
    defaults = dict(
        tree=from_spec("1-3-5"),
        workload=WorkloadSpec(
            operations=120, read_fraction=0.5, keys=16,
            arrival="poisson", rate=0.3,
        ),
        drop_probability=0.08,
        timeout=5.0,
        max_attempts=4,
        seed=13,
        trace=True,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def run_partitioned(config: SimulationConfig):
    """Run ``config`` with a partition applied mid-run and later healed."""
    scheduler, workload, monitor, network, _sites = build_simulation(config)
    scheduler.schedule(
        20.0, lambda: network.set_partition(PartitionSpec.split({0, 1, 2, 3}))
    )
    scheduler.schedule(60.0, network.heal_partition)
    workload.start()
    while workload.completed < config.workload.operations:
        assert scheduler.step(), "event queue drained early"
    return monitor, network


class TestTraceWellFormed:
    def setup_method(self):
        self.outcomes = []
        result = simulate(lossy_config(), on_outcome=self.outcomes.append)
        self.recorder = result.recorder
        self.network_stats = result.network_stats

    def test_recorder_enabled_and_loss_actually_happened(self):
        assert isinstance(self.recorder, TraceRecorder)
        assert self.network_stats.dropped_loss > 0
        assert any(o.attempts > 1 for o in self.outcomes)

    def test_every_span_started_is_finished(self):
        assert self.recorder.open_spans() == []

    def test_one_root_span_per_operation(self):
        roots = [
            s for s in self.recorder.spans.values() if s.parent_id is None
        ]
        assert len(roots) == len(self.outcomes) == 120
        assert all(s.kind is SpanKind.OPERATION for s in roots)
        assert all(s.trace_id == s.span_id for s in roots)

    def test_parents_resolve_within_the_same_trace(self):
        by_id = self.recorder.spans
        for span in by_id.values():
            if span.parent_id is None:
                continue
            parent = by_id[span.parent_id]
            assert parent.trace_id == span.trace_id
            assert parent.start <= span.start

    def test_attempts_nest_correctly(self):
        """Attempt spans match outcome.attempts; retries are op-level events."""
        spans = list(self.recorder.spans.values())
        attempts = [s for s in spans if s.kind is SpanKind.ATTEMPT]
        assert len(attempts) == sum(o.attempts for o in self.outcomes)
        # attempt spans hang directly off the operation root
        assert all(s.parent_id == s.trace_id for s in attempts)
        # per trace, attempt numbers are 1..k with disjoint time ranges
        by_trace: dict[int, list] = {}
        for span in attempts:
            by_trace.setdefault(span.trace_id, []).append(span)
        for members in by_trace.values():
            members.sort(key=lambda s: s.start)
            assert [s.attributes["number"] for s in members] == list(
                range(1, len(members) + 1)
            )
            for earlier, later in zip(members, members[1:]):
                assert earlier.end <= later.start
        # one retry event per non-first attempt
        retries = [
            s for s in spans
            if s.kind is SpanKind.EVENT and s.name == "retry"
        ]
        assert len(retries) == sum(
            max(o.attempts - 1, 0) for o in self.outcomes
        )

    def test_phases_nest_under_attempts(self):
        spans = self.recorder.spans
        phases = [s for s in spans.values() if s.kind is SpanKind.PHASE]
        assert phases, "expected phase spans"
        assert {s.name for s in phases} == {
            "phase/read", "phase/prepare", "phase/commit",
        }
        for span in phases:
            assert spans[span.parent_id].kind is SpanKind.ATTEMPT

    def test_dropped_messages_appear_in_counters(self):
        counters = self.recorder.counters
        assert (
            sum(counters["message.sent"].values()) == self.network_stats.sent
        )
        assert (
            sum(counters["message.dropped.loss"].values())
            == self.network_stats.dropped_loss
        )
        assert (
            sum(counters["message.delivered"].values())
            == self.network_stats.delivered
        )


class TestPartitionedTrace:
    def test_partition_drops_are_counted_and_trace_stays_well_formed(self):
        config = lossy_config(
            drop_probability=0.0, seed=21,
            workload=WorkloadSpec(
                operations=150, read_fraction=0.5, keys=16,
                arrival="poisson", rate=0.4,
            ),
        )
        monitor, network = run_partitioned(config)
        recorder = monitor.recorder
        assert network.stats.dropped_partition > 0
        assert recorder.open_spans() == []
        assert (
            sum(recorder.counters["message.dropped.partition"].values())
            == network.stats.dropped_partition
        )
        roots = [s for s in recorder.spans.values() if s.parent_id is None]
        assert len(roots) == 150

    def test_unavailability_defers_show_up_as_spans(self):
        config = lossy_config(
            drop_probability=0.0, seed=5, max_attempts=2, timeout=4.0,
            workload=WorkloadSpec(
                operations=80, read_fraction=0.2, keys=8,
                arrival="poisson", rate=0.5,
            ),
        )
        monitor, _network = run_partitioned(config)
        defers = [
            s for s in monitor.recorder.spans.values()
            if s.kind is SpanKind.DEFER
        ]
        # the majority side cannot assemble write quorums while split
        assert defers, "expected unavailability deferral spans"
        assert all(s.status == "no-quorum-available" for s in defers)


class TestDisabledByDefault:
    def test_untraced_run_records_nothing(self):
        result = simulate(lossy_config(trace=False))
        assert result.recorder.enabled is False
        assert not hasattr(result.recorder, "spans")


class TestCliRoundTrip:
    def test_trace_then_report(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "trace", "1-3-5", "--operations", "40", "--drop", "0.05",
                    "--seed", "3", "--out", str(out),
                ]
            )
            == 0
        )
        assert out.exists()
        capsys.readouterr()

        assert main(["report", "--trace-file", str(out)]) == 0
        text = capsys.readouterr().out
        assert "phase/" in text
        assert "flame summary" in text

        loaded = load_trace(out)
        assert loaded.open_spans() == []
        assert len([s for s in loaded.spans.values() if s.parent_id is None]) == 40
