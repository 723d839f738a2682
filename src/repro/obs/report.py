"""Render trace streams as human-readable reports.

Two views over a :class:`~repro.obs.recorder.TraceRecorder`:

* :func:`phase_breakdown` / :func:`render_phase_breakdown` — per-phase
  latency statistics (count, mean, p50, p95, total) grouped by operation
  type and phase name, the measured counterpart of "where does an
  operation's time go";
* :func:`flame_summary` — an aggregated text flame graph: spans merged by
  their name path from the root, with call counts and total simulated
  time, so retries, deferrals and slow phases stand out at a glance.

All views run equally on a live recorder or one re-loaded from a JSON
Lines export (:mod:`repro.obs.export`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.obs.recorder import TraceRecorder
from repro.obs.spans import Span, SpanKind
from repro.obs.stats import linear_percentile

#: Span kinds that represent time an operation actually spent somewhere.
_TIMED_KINDS = (SpanKind.LOCK_WAIT, SpanKind.PHASE, SpanKind.DEFER)


@dataclass
class PhaseStat:
    """Latency statistics of one (operation type, phase) pair."""

    op: str
    phase: str
    count: int
    mean: float
    p50: float
    p95: float
    total: float
    #: How many of the spans were overlapped rounds (a write's prepare
    #: that carried its version round; see DESIGN §2.4).
    overlapped: int = 0


def phase_breakdown(spans: list[Span]) -> list[PhaseStat]:
    """Aggregate lock-wait/phase/defer spans into per-phase statistics."""
    durations: dict[tuple[str, str], list[float]] = {}
    overlapped: Counter[tuple[str, str]] = Counter()
    for span in spans:
        if span.kind not in _TIMED_KINDS or not span.finished:
            continue
        key = (str(span.attributes.get("op", "?")), span.name)
        durations.setdefault(key, []).append(span.duration)
        if span.attributes.get("overlapped"):
            overlapped[key] += 1
    stats = []
    for (op, phase), values in sorted(durations.items()):
        values.sort()
        stats.append(
            PhaseStat(
                op=op,
                phase=phase,
                count=len(values),
                mean=sum(values) / len(values),
                p50=linear_percentile(values, 0.5),
                p95=linear_percentile(values, 0.95),
                total=sum(values),
                overlapped=overlapped[op, phase],
            )
        )
    return stats


def render_phase_breakdown(stats: list[PhaseStat]) -> str:
    """Text table of :func:`phase_breakdown` output."""
    header = (
        f"{'op':<7} {'phase':<20} {'count':>7} {'mean':>9} "
        f"{'p50':>9} {'p95':>9} {'total':>11} {'overlapped':>10}"
    )
    lines = [header, "-" * len(header)]
    for stat in stats:
        lines.append(
            f"{stat.op:<7} {stat.phase:<20} {stat.count:>7} "
            f"{stat.mean:>9.3f} {stat.p50:>9.3f} {stat.p95:>9.3f} "
            f"{stat.total:>11.2f} {stat.overlapped or '':>10}"
        )
    if len(lines) == 2:
        lines.append("(no timed spans recorded)")
    return "\n".join(lines)


def flame_summary(recorder: TraceRecorder, indent: str = "  ") -> str:
    """Aggregated text flame graph over every trace in the recorder.

    Spans are merged by their name path from the root; each line shows the
    merged count, total simulated time and mean.  Event spans (timeouts,
    retries) appear with their counts and zero duration.
    """
    children: dict[int, list[Span]] = {}
    roots: list[Span] = []
    for span in recorder.spans.values():
        if span.parent_id is None:
            roots.append(span)
        else:
            children.setdefault(span.parent_id, []).append(span)

    aggregate: dict[tuple[str, ...], list[float]] = {}

    def walk(span: Span, path: tuple[str, ...]) -> None:
        path = path + (span.name,)
        cell = aggregate.setdefault(path, [0, 0.0])
        cell[0] += 1
        cell[1] += span.duration
        for child in children.get(span.span_id, ()):
            walk(child, path)

    for root in roots:
        walk(root, ())

    total_spans = len(recorder.spans)
    lines = [f"flame summary ({len(roots)} traces, {total_spans} spans)"]
    for path in sorted(aggregate):
        count, total = aggregate[path]
        mean = total / count if count else 0.0
        lines.append(
            f"{indent * (len(path) - 1)}{path[-1]:<{30 - len(indent) * (len(path) - 1)}}"
            f" {int(count):>7}x  total {total:>11.2f}  mean {mean:>8.3f}"
        )
    return "\n".join(lines)


def render_counters(recorder: TraceRecorder) -> str:
    """Counter groups (message send/deliver/drop tallies) as text."""
    lines = []
    for group in sorted(recorder.counters):
        lines.append(f"{group}:")
        for name, value in sorted(recorder.counters[group].items()):
            lines.append(f"  {name:<20} {value:>9}")
    if not lines:
        lines.append("(no counters recorded)")
    return "\n".join(lines)
