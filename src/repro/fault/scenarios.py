"""Chaos scenario library: adversarial schedules compiled onto the
existing :class:`~repro.sim.failures.FailureInjector` / network machinery.

Each scenario is itself a :class:`FailureInjector`, so scenarios compose
with the stock injectors (Bernoulli snapshots, crash/repair churn,
partition windows) through :class:`~repro.sim.failures.CompositeFailures`
and plug into :class:`~repro.sim.engine.SimulationConfig` unchanged:

* :class:`FlakyLinkBursts` — periodic bursts during which a seeded
  subset of sites drops most of its messages (links flap, sites stay
  "up" — invisible to the perfect crash detector, food for the
  suspicion-based one);
* :class:`RollingRestarts` — sites crash and recover one after another
  at a fixed cadence, like a fleet-wide redeploy;
* :class:`StragglerSites` — per-site latency inflation: chosen sites
  answer, but slower than the quorum timeout, which poisons every
  quorum containing them;
* :class:`PartitionFlapping` — a partition that installs and heals on a
  duty cycle, the pathological version of Section 2.2's special failure
  case;
* :class:`MassCrash` — a seeded fraction of the fleet crashes at one
  instant and recovers on a stagger, the recovery-time benchmark
  scenario.

All randomness is drawn at install time from a ``random.Random`` seeded
there with the constructor's seed, so a scenario's entire schedule is a
pure function of its parameters — two same-seed chaos runs are
bit-identical, and so are two runs of one config.

:func:`chaos_injector` builds the named scenarios the CLI / runner /
benchmarks share, and :data:`CHAOS_SCENARIOS` lists their names.  A
tree change is not a scenario: ``SimulationConfig.reshape_at`` /
``reshape_spec`` reshape a run, under any of these.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.sim.events import Scheduler
from repro.sim.failures import CompositeFailures, FailureInjector
from repro.sim.network import Network, PartitionSpec
from repro.sim.site import Site


class FlakyLinkBursts(FailureInjector):
    """Bursts of heavy per-site message loss on a rotating seeded subset.

    Every ``period`` time units a burst starts: ``count`` sites (drawn
    per burst from the seeded stream) drop incoming and outgoing
    messages with probability ``drop`` for ``duration`` time units, then
    the links settle again.
    """

    def __init__(
        self,
        drop: float = 0.6,
        count: int = 2,
        period: float = 80.0,
        duration: float = 20.0,
        start: float = 10.0,
        horizon: float = 1000.0,
        seed: int | None = 0,
    ) -> None:
        if not 0.0 < drop <= 1.0:
            raise ValueError("burst drop probability must be in (0, 1]")
        if count < 1:
            raise ValueError("need at least one flaky site per burst")
        if period <= 0 or duration <= 0 or duration > period:
            raise ValueError("need 0 < duration <= period")
        if horizon <= start:
            raise ValueError("horizon must come after start")
        self._drop = drop
        self._count = count
        self._period = period
        self._duration = duration
        self._start = start
        self._horizon = horizon
        self._seed = seed

    def install(
        self,
        scheduler: Scheduler,
        sites: Sequence[Site],
        network: Network,
    ) -> None:
        """Schedule every burst (and its settling) inside the horizon."""
        rng = random.Random(self._seed)
        sids = sorted(site.sid for site in sites)
        count = min(self._count, len(sids))
        at = self._start
        while at < self._horizon:
            flaky = tuple(rng.sample(sids, count))

            def begin(chosen: tuple[int, ...] = flaky) -> None:
                for sid in chosen:
                    network.set_site_drop(sid, self._drop)

            def settle(chosen: tuple[int, ...] = flaky) -> None:
                for sid in chosen:
                    network.set_site_drop(sid, 0.0)

            scheduler.schedule_at(at, begin)
            scheduler.schedule_at(at + self._duration, settle)
            at += self._period


class RollingRestarts(FailureInjector):
    """Crash and recover sites one after another at a fixed cadence.

    Site ``k`` (in SID order) crashes at ``start + k * period`` and
    recovers ``downtime`` later, one pass over the fleet.  The
    deterministic fleet-redeploy
    pattern: never more than one site down at once (if
    ``downtime <= period``), but every site takes its turn.
    """

    def __init__(
        self,
        period: float = 40.0,
        downtime: float = 10.0,
        start: float = 20.0,
    ) -> None:
        if period <= 0 or downtime <= 0:
            raise ValueError("period and downtime must be positive")
        self._period = period
        self._downtime = downtime
        self._start = start

    def install(
        self,
        scheduler: Scheduler,
        sites: Sequence[Site],
        network: Network,
    ) -> None:
        """Schedule every crash/recover pair of the rolling schedule."""
        ordered = sorted(sites, key=lambda site: site.sid)
        at = self._start
        for site in ordered:
            scheduler.schedule_at(at, site.crash)
            scheduler.schedule_at(at + self._downtime, site.recover)
            at += self._period


class StragglerSites(FailureInjector):
    """Inflate chosen sites' message latency by a constant factor.

    Stragglers stay up and answer every request — just too slowly.  A
    quorum containing one (with ``factor`` large enough relative to the
    coordinator timeout) times out even though every member is "live",
    which is exactly the failure mode a perfect crash detector cannot
    see and a suspicion-based one learns.
    """

    def __init__(
        self,
        factor: float = 20.0,
        count: int = 2,
        start: float = 0.0,
        duration: float | None = None,
        seed: int | None = 0,
        sids: Sequence[int] | None = None,
    ) -> None:
        if factor <= 1.0:
            raise ValueError("straggler factor must exceed 1")
        if count < 1:
            raise ValueError("need at least one straggler")
        if duration is not None and duration <= 0:
            raise ValueError("duration must be positive")
        self._factor = factor
        self._count = count
        self._start = start
        self._duration = duration
        self._seed = seed
        # Explicit sids pin the stragglers (benchmarks want them disjoint
        # from crash victims); None samples ``count`` from the seed.
        self._sids = tuple(sids) if sids is not None else None
        #: The SIDs chosen at install time (exposed for tests/benches).
        self.chosen: tuple[int, ...] = ()

    def install(
        self,
        scheduler: Scheduler,
        sites: Sequence[Site],
        network: Network,
    ) -> None:
        """Pick the stragglers and schedule the inflation window."""
        if self._sids is not None:
            self.chosen = self._sids
        else:
            sids = sorted(site.sid for site in sites)
            self.chosen = tuple(random.Random(self._seed).sample(
                sids, min(self._count, len(sids))
            ))

        def slow_down() -> None:
            for sid in self.chosen:
                network.set_site_latency_factor(sid, self._factor)

        def recover() -> None:
            for sid in self.chosen:
                network.set_site_latency_factor(sid, 1.0)

        scheduler.schedule_at(self._start, slow_down)
        if self._duration is not None:
            scheduler.schedule_at(self._start + self._duration, recover)


class PartitionFlapping(FailureInjector):
    """A partition that installs and heals on a duty cycle.

    Each ``period``, the partition is installed for ``duty * period``
    then healed for the remainder, from ``start`` until ``end``.
    """

    def __init__(
        self,
        spec: PartitionSpec,
        period: float = 60.0,
        duty: float = 0.5,
        start: float = 30.0,
        end: float = 1000.0,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 < duty < 1.0:
            raise ValueError("duty must be in (0, 1)")
        if end <= start:
            raise ValueError("end must come after start")
        self._spec = spec
        self._period = period
        self._duty = duty
        self._start = start
        self._end = end

    def install(
        self,
        scheduler: Scheduler,
        sites: Sequence[Site],
        network: Network,
    ) -> None:
        """Schedule every install/heal flap inside the window."""
        at = self._start
        while at < self._end:
            scheduler.schedule_at(
                at, lambda: network.set_partition(self._spec)
            )
            scheduler.schedule_at(
                min(at + self._duty * self._period, self._end),
                network.heal_partition,
            )
            at += self._period


class MassCrash(FailureInjector):
    """Crash a seeded fraction of the fleet at one instant.

    Each victim recovers ``recover_after`` later, staggered by
    ``stagger`` per site — the scenario behind ``BENCH_fault.json``'s
    time-to-first-success measurement.
    """

    def __init__(
        self,
        at: float = 100.0,
        fraction: float = 0.5,
        recover_after: float | None = 200.0,
        stagger: float = 5.0,
        seed: int | None = 0,
        sids: Sequence[int] | None = None,
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("crash fraction must be in (0, 1]")
        if recover_after is not None and recover_after <= 0:
            raise ValueError("recover_after must be positive")
        if stagger < 0:
            raise ValueError("stagger cannot be negative")
        self._at = at
        self._fraction = fraction
        self._recover_after = recover_after
        self._stagger = stagger
        self._seed = seed
        # Explicit sids pin the victims (benchmarks keep the read-critical
        # sites alive); None samples ``fraction`` of the fleet from the seed.
        self._sids = tuple(sids) if sids is not None else None
        #: The SIDs crashed at install time (exposed for tests/benches).
        self.victims: tuple[int, ...] = ()

    def install(
        self,
        scheduler: Scheduler,
        sites: Sequence[Site],
        network: Network,
    ) -> None:
        """Schedule the crash instant and the staggered recoveries."""
        ordered = sorted(sites, key=lambda site: site.sid)
        if self._sids is not None:
            by_sid = {site.sid: site for site in ordered}
            chosen = [by_sid[sid] for sid in self._sids]
        else:
            count = max(1, round(self._fraction * len(ordered)))
            chosen = random.Random(self._seed).sample(ordered, count)
        self.victims = tuple(site.sid for site in chosen)

        def crash_all() -> None:
            for site in chosen:
                site.crash()

        scheduler.schedule_at(self._at, crash_all)
        if self._recover_after is None:
            return
        for index, site in enumerate(chosen):
            scheduler.schedule_at(
                self._at + self._recover_after + index * self._stagger,
                site.recover,
            )


#: The scenario names :func:`chaos_injector` understands ("all" composes
#: every one of them).
CHAOS_SCENARIOS: tuple[str, ...] = (
    "flaky",
    "rolling",
    "stragglers",
    "flapping",
    "mass-crash",
)


def _half_partition(n: int) -> PartitionSpec:
    """Split replicas in half, keeping coordinators with the larger side.

    Coordinator SIDs are negative; parking a generous range of them in
    the majority component keeps clients able to reach a (potential)
    quorum during flaps instead of being isolated from everyone.
    """
    half = n // 2
    minority = set(range(half))
    majority = set(range(half, n)) | {-sid for sid in range(1, 33)}
    return PartitionSpec.split(minority, majority)


def chaos_injector(
    scenario: str,
    n: int,
    seed: int = 0,
    horizon: float = 1000.0,
) -> FailureInjector:
    """Build a named chaos scenario for an ``n``-replica fleet.

    ``"all"`` composes every scenario in :data:`CHAOS_SCENARIOS` with
    per-scenario child seeds derived from ``seed``.
    """
    if scenario == "all":
        derive = random.Random(seed)
        return CompositeFailures([
            chaos_injector(name, n, seed=derive.getrandbits(64), horizon=horizon)
            for name in CHAOS_SCENARIOS
        ])
    if scenario == "flaky":
        return FlakyLinkBursts(
            drop=0.6, count=max(1, n // 6), period=80.0, duration=20.0,
            start=10.0, horizon=horizon, seed=seed,
        )
    if scenario == "rolling":
        return RollingRestarts(period=40.0, downtime=10.0, start=20.0)
    if scenario == "stragglers":
        return StragglerSites(
            factor=20.0, count=max(1, n // 5), start=0.0,
            duration=horizon / 2, seed=seed,
        )
    if scenario == "flapping":
        return PartitionFlapping(
            _half_partition(n), period=60.0, duty=0.4, start=30.0,
            end=horizon,
        )
    if scenario == "mass-crash":
        return MassCrash(
            at=horizon / 10, fraction=0.5, recover_after=horizon / 4,
            stagger=5.0, seed=seed,
        )
    raise ValueError(
        f"unknown chaos scenario {scenario!r}; "
        f"choose from {CHAOS_SCENARIOS + ('all',)}"
    )
