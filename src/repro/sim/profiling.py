"""Profiling harness for the simulator's inner ring (``repro profile``).

Two complementary views of where a simulation run spends its time:

* **wall-clock profile** — the run under :mod:`cProfile`, reported as
  the top functions by own-time.  This is the view that drives the
  inner-ring optimisation work (DESIGN.md §2.15): it attributes *host*
  time, so scheduler pops, message construction and delivery dominate.
* **phase attribution** — a second, *traced* run of the same
  configuration, folded into the observability layer's per-phase
  latency breakdown.  This attributes *simulated* time to protocol
  phases (read quorum, prepare with its version requests, decision),
  the view that drives protocol-level tuning.

The two views deliberately come from separate runs: tracing swaps the
zero-cost :class:`~repro.obs.recorder.NullRecorder` guards for a live
recorder, which perturbs exactly the hot paths the wall-clock profile
is meant to measure.  The untraced run is profiled; the traced run is
only used for phase attribution (its RNG stream is identical — tracing
never draws randomness — so both runs execute the same simulation).
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from dataclasses import dataclass, replace

from repro.sim.engine import SimulationConfig, SimulationResult, simulate


@dataclass(frozen=True)
class ProfileReport:
    """Everything ``repro profile`` prints, as data."""

    result: SimulationResult
    #: ``pstats`` top-function table (strip_dirs, sorted, truncated).
    hotspots: str
    #: Host seconds for the profiled (untraced) run, profiler overhead
    #: included.
    wall_seconds: float
    #: Simulated events executed per host second in the profiled run.
    events_per_sec: float
    #: Completed operations per host second in the profiled run.
    ops_per_sec: float
    #: Rendered per-phase latency breakdown (None when skipped).
    phase_breakdown: str | None


def profile_simulation(
    config: SimulationConfig,
    sort: str = "tottime",
    limit: int = 25,
    phases: bool = True,
) -> ProfileReport:
    """Run ``config`` under cProfile; optionally attribute phases.

    ``sort`` is any :mod:`pstats` sort key (``tottime`` shows the inner
    ring, ``cumtime`` the call tree).  ``limit`` rows are printed.
    """
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    result = simulate(config)
    profiler.disable()
    wall = time.perf_counter() - started

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats(sort).print_stats(limit)

    summary = result.summary()
    operations = summary["reads"] + summary["writes"]

    breakdown: str | None = None
    if phases:
        from repro.obs import phase_breakdown, render_phase_breakdown

        traced = simulate(replace(config, trace=True))
        breakdown = render_phase_breakdown(
            phase_breakdown(traced.recorder.finished_spans())
        )

    return ProfileReport(
        result=result,
        hotspots=stream.getvalue(),
        wall_seconds=wall,
        events_per_sec=result.events_processed / wall if wall else 0.0,
        ops_per_sec=operations / wall if wall else 0.0,
        phase_breakdown=breakdown,
    )
