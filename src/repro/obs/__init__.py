"""Structured tracing and metrics for the simulator (``repro.obs``).

The observability layer that makes measurement bugs impossible to miss:
every simulated operation becomes a *trace* — a tree of typed spans for
lock waits, quorum attempts, protocol phases, deferrals and timeout/retry
events — while the network and lock manager feed per-message-type counters
and wait/hold metrics into the same recorder.  Traces export as JSON Lines
and render as per-phase latency breakdowns and flame summaries.

The default recorder is a no-op (:data:`NULL_RECORDER`): with tracing off
the instrumented hot paths cost a single attribute check, so the simulator
keeps its uninstrumented speed (asserted by
``benchmarks/bench_obs_overhead.py``).
"""

from repro.obs.export import export_trace, load_trace, summaries_of, trace_records
from repro.obs.recorder import NULL_RECORDER, NullRecorder, TraceRecorder
from repro.obs.report import (
    PhaseStat,
    flame_summary,
    phase_breakdown,
    render_counters,
    render_phase_breakdown,
)
from repro.obs.spans import STATUS_OK, Span, SpanKind
from repro.obs.stats import Histogram, linear_percentile

__all__ = [
    "Histogram",
    "NULL_RECORDER",
    "NullRecorder",
    "PhaseStat",
    "STATUS_OK",
    "Span",
    "SpanKind",
    "TraceRecorder",
    "export_trace",
    "flame_summary",
    "linear_percentile",
    "load_trace",
    "phase_breakdown",
    "render_counters",
    "render_phase_breakdown",
    "summaries_of",
    "trace_records",
]
