"""Failure injection: crashes, repairs and partitions (Section 2.2).

Three injectors cover the paper's failure model:

* :class:`BernoulliFailures` — every site is independently down with
  probability ``q = 1 - p`` for the whole run.  This is exactly the
  availability model of the analysis (a static snapshot), so measured
  success rates converge to the closed-form availabilities;
* :class:`CrashRepairProcess` — sites alternate between up and down periods
  with exponential durations (transient, detectable failures);
* :class:`PartitionSchedule` — installs a network partition during a time
  window (the special failure case of Section 2.2 where only sites in the
  same partition communicate).

Injectors expose ``install(scheduler, sites, network)``; the engine calls
this before the workload starts.  A seeded injector keeps its seed and
draws a fresh generator from it at every install, so one config runs the
same failure schedule every time it is simulated.
"""

from __future__ import annotations

import abc
import random
from collections.abc import Mapping, Sequence

from repro.sim.events import Scheduler
from repro.sim.network import Network, PartitionSpec
from repro.sim.site import Site


class FailureInjector(abc.ABC):
    """Base class: something that schedules failures into a simulation."""

    @abc.abstractmethod
    def install(
        self,
        scheduler: Scheduler,
        sites: Sequence[Site],
        network: Network,
    ) -> None:
        """Schedule this injector's failure events."""


class NoFailures(FailureInjector):
    """The failure-free baseline."""

    def install(
        self,
        scheduler: Scheduler,
        sites: Sequence[Site],
        network: Network,
    ) -> None:
        """Nothing to schedule."""


class BernoulliFailures(FailureInjector):
    """Independent per-site crash with probability ``q = 1 - p`` at t=0.

    Matches the analysis assumption that each replica is available with
    probability ``p`` independently: one draw per site, held for the whole
    run.  Use many short runs (or one run with many operations and
    ``resample_every``) to estimate availability.

    ``p`` may also be a mapping from SID to probability for heterogeneous
    fleets (the generalised product forms in :mod:`repro.core.metrics`
    accept the same mapping).
    """

    def __init__(
        self,
        p: float | Mapping[int, float],
        seed: int | None = 0,
        resample_every: float | None = None,
    ) -> None:
        probabilities = (
            list(p.values()) if isinstance(p, Mapping) else [p]
        )
        for value in probabilities:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"p must be in [0, 1], got {value}")
        self._p = p
        self._seed = seed
        self._resample_every = resample_every

    def _probability(self, sid: int) -> float:
        if isinstance(self._p, Mapping):
            return self._p[sid]
        return self._p

    def install(
        self,
        scheduler: Scheduler,
        sites: Sequence[Site],
        network: Network,
    ) -> None:
        """Crash the unlucky sites now; optionally redraw periodically."""
        if isinstance(self._p, Mapping):
            # Validate up front instead of dying with a bare KeyError on the
            # first draw (or — for an empty mapping against no sites —
            # passing vacuously): a heterogeneous p must cover the fleet.
            missing = [site.sid for site in sites if site.sid not in self._p]
            if missing:
                raise ValueError(
                    "BernoulliFailures p mapping must cover every site; "
                    f"missing SIDs {missing}"
                )
        rng = random.Random(self._seed)
        self._apply(sites, rng)
        if self._resample_every is not None:
            self._schedule_resample(scheduler, sites, rng)

    def _apply(self, sites: Sequence[Site], rng: random.Random) -> None:
        for site in sites:
            if rng.random() < self._probability(site.sid):
                site.recover()
            else:
                site.crash()

    def _schedule_resample(
        self, scheduler: Scheduler, sites: Sequence[Site], rng: random.Random
    ) -> None:
        def resample() -> None:
            self._apply(sites, rng)
            self._schedule_resample(scheduler, sites, rng)

        assert self._resample_every is not None
        scheduler.schedule(self._resample_every, resample)


class CrashRepairProcess(FailureInjector):
    """Alternating exponential up/down periods per site.

    ``mean_uptime`` and ``mean_downtime`` give a long-run per-site
    availability of ``mean_uptime / (mean_uptime + mean_downtime)``, which is
    the natural dynamic analogue of the paper's ``p``.
    """

    def __init__(
        self,
        mean_uptime: float,
        mean_downtime: float,
        seed: int | None = 0,
        horizon: float | None = None,
    ) -> None:
        if mean_uptime <= 0 or mean_downtime <= 0:
            raise ValueError("mean up/down times must be positive")
        self._mean_uptime = mean_uptime
        self._mean_downtime = mean_downtime
        self._seed = seed
        self._horizon = horizon

    @property
    def long_run_availability(self) -> float:
        """The stationary probability a site is up."""
        return self._mean_uptime / (self._mean_uptime + self._mean_downtime)

    def install(
        self,
        scheduler: Scheduler,
        sites: Sequence[Site],
        network: Network,
    ) -> None:
        """Schedule the first crash of every site."""
        rng = random.Random(self._seed)
        for site in sites:
            self._schedule_crash(scheduler, site, rng)

    def _within_horizon(self, scheduler: Scheduler, delay: float) -> bool:
        return self._horizon is None or scheduler.now + delay <= self._horizon

    def _schedule_crash(
        self, scheduler: Scheduler, site: Site, rng: random.Random
    ) -> None:
        delay = rng.expovariate(1.0 / self._mean_uptime)
        if not self._within_horizon(scheduler, delay):
            return

        def crash() -> None:
            site.crash()
            self._schedule_recovery(scheduler, site, rng)

        scheduler.schedule(delay, crash)

    def _schedule_recovery(
        self, scheduler: Scheduler, site: Site, rng: random.Random
    ) -> None:
        delay = rng.expovariate(1.0 / self._mean_downtime)
        # Recoveries are NOT horizon-gated: the horizon stops new *crashes*
        # (the next crash gates itself in _schedule_crash), but every crash
        # must still pair with its repair (transient failures, Section 2.2).
        # Gating recoveries here used to leave any site whose repair fell
        # past the horizon crashed forever, silently depressing measured
        # availability on long tails.

        def recover() -> None:
            site.recover()
            self._schedule_crash(scheduler, site, rng)

        scheduler.schedule(delay, recover)


class PartitionSchedule(FailureInjector):
    """Install a partition over ``[start, end)`` and heal it afterwards."""

    def __init__(
        self, spec: PartitionSpec, start: float, end: float
    ) -> None:
        if not 0 <= start < end:
            raise ValueError(f"invalid partition window [{start}, {end})")
        self._spec = spec
        self._start = start
        self._end = end

    def install(
        self,
        scheduler: Scheduler,
        sites: Sequence[Site],
        network: Network,
    ) -> None:
        """Schedule the split and the heal."""
        scheduler.schedule_at(self._start, lambda: network.set_partition(self._spec))
        scheduler.schedule_at(self._end, network.heal_partition)


class CompositeFailures(FailureInjector):
    """Apply several injectors together (e.g. crashes plus a partition)."""

    def __init__(self, injectors: Sequence[FailureInjector]) -> None:
        self._injectors = tuple(injectors)

    def install(
        self,
        scheduler: Scheduler,
        sites: Sequence[Site],
        network: Network,
    ) -> None:
        """Install every child injector."""
        for injector in self._injectors:
            injector.install(scheduler, sites, network)
