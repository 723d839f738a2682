"""Scaling regressions for the workload generator.

Two historical O(N) costs are pinned down here:

* Zipf key picking used ``random.choices(weights=...)``, which
  re-accumulates the full weight list on **every operation** — O(keys)
  per pick.  The fix precomputes cumulative weights once; these tests
  prove the sampled stream is bit-identical to the old path and that a
  million-key spec samples in O(log keys) per pick.
* Poisson arrivals were all scheduled at ``t=0`` — O(operations) heap
  entries before the first event ran.  The fix chains each arrival from
  the previous one; these tests prove the arrival times are
  bit-identical to the old upfront schedule and the heap stays flat.

Plus distributional sanity: a chi-square test that Zipf sampling matches
its law (and is head-heavy).
"""

import random
import time
from itertools import accumulate

import pytest

from repro.sim.coordinator import OperationOutcome
from repro.sim.events import Scheduler
from repro.sim.workload import Workload, WorkloadSpec


class InstantCoordinator:
    """Records issue times and completes every operation immediately."""

    def __init__(self, scheduler):
        self._scheduler = scheduler
        self.issue_times: list[float] = []
        self.keys: list[str] = []

    def _complete(self, op_type, key, done):
        now = self._scheduler.now
        self.issue_times.append(now)
        self.keys.append(key)
        outcome = OperationOutcome(
            op_type=op_type, key=key, success=True,
            started_at=now, finished_at=now,
        )
        # Completing through the scheduler (not synchronously) keeps the
        # closed loop iterative instead of recursive.
        self._scheduler.schedule_at(now, lambda: done(outcome))

    def read(self, key, done):
        self._complete("read", key, done)

    def write(self, key, value, done):
        self._complete("write", key, done)


def _drive(spec: WorkloadSpec, seed: int = 0):
    scheduler = Scheduler()
    coordinator = InstantCoordinator(scheduler)
    workload = Workload(
        spec=spec,
        coordinator=[coordinator],
        clock=scheduler,
        rng=random.Random(seed),
        on_outcome=lambda outcome: None,
    )
    workload.start()
    while scheduler.step():
        pass
    assert workload.completed == spec.operations
    return scheduler, coordinator


class TestZipfFastPath:
    def test_stream_bit_identical_to_weights_path(self):
        # The old implementation drew
        # rng.choices(range(keys), weights=[1/r**s ...]) per pick;
        # choices() internally accumulates the weights and bisects, so a
        # precomputed cum_weights pick must consume the identical RNG
        # state and return the identical key, op for op.
        spec = WorkloadSpec(operations=500, keys=64, zipf_s=1.2)
        _scheduler, coordinator = _drive(spec, seed=42)

        weights = [1.0 / (rank**spec.zipf_s) for rank in range(1, spec.keys + 1)]
        old_rng = random.Random(42)
        expected = []
        for _ in range(spec.operations):
            (index,) = old_rng.choices(range(spec.keys), weights=weights)
            old_rng.random()  # the read/write draw
            expected.append(f"k{index}")
        assert coordinator.keys == expected

    def test_million_key_spec_samples_without_linear_scans(self):
        # With the O(keys)-per-op path, 2000 picks over 1M keys is 2e9
        # weight additions — minutes.  The bisect path does the O(keys)
        # accumulation exactly once; the whole run fits in a generous
        # wall-clock bound even on a loaded CI box.
        spec = WorkloadSpec(operations=2000, keys=1_000_000, zipf_s=1.1)
        started = time.perf_counter()
        _scheduler, coordinator = _drive(spec, seed=7)
        elapsed = time.perf_counter() - started
        assert len(coordinator.keys) == 2000
        assert elapsed < 20.0

    def test_cum_weights_built_once_and_monotone(self):
        spec = WorkloadSpec(operations=1, keys=1000, zipf_s=1.0)
        workload = Workload(
            spec=spec,
            coordinator=[InstantCoordinator(Scheduler())],
            clock=Scheduler(),
            rng=random.Random(0),
            on_outcome=lambda outcome: None,
        )
        cum = workload._cum_weights
        assert cum is not None and len(cum) == 1000
        assert all(a < b for a, b in zip(cum, cum[1:]))

    def test_uniform_spec_skips_weighting(self):
        spec = WorkloadSpec(operations=1, keys=1000)
        workload = Workload(
            spec=spec,
            coordinator=[InstantCoordinator(Scheduler())],
            clock=Scheduler(),
            rng=random.Random(0),
            on_outcome=lambda outcome: None,
        )
        assert workload._cum_weights is None


class TestZipfDistribution:
    def test_chi_square_matches_zipf_law(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        spec = WorkloadSpec(operations=20_000, keys=8, zipf_s=1.0)
        _scheduler, coordinator = _drive(spec, seed=11)
        counts = [0] * spec.keys
        for key in coordinator.keys:
            counts[int(key[1:])] += 1
        weights = [1.0 / rank for rank in range(1, spec.keys + 1)]
        total = sum(weights)
        expected = [w / total * spec.operations for w in weights]
        result = scipy_stats.chisquare(counts, expected)
        assert result.pvalue > 1e-3

    def test_head_heavier_than_uniform(self):
        spec = WorkloadSpec(operations=10_000, keys=100, zipf_s=1.0)
        _scheduler, coordinator = _drive(spec, seed=3)
        head = sum(1 for key in coordinator.keys if int(key[1:]) < 10)
        # Under s=1.0 the top decile carries ~56% of the mass; under
        # uniform it would carry 10%.
        assert head / spec.operations > 0.4


class TestPoissonIncrementalSchedule:
    def test_arrival_times_bit_identical_to_upfront_schedule(self):
        # The old implementation drew every expovariate gap up front and
        # scheduled the cumulative sums at t=0.  The chained scheduler
        # must reproduce those arrival instants exactly: same derived
        # arrival RNG, same gap stream, same cumulative sums.
        spec = WorkloadSpec(operations=300, keys=16, arrival="poisson", rate=0.5)
        _scheduler, coordinator = _drive(spec, seed=99)

        main_rng = random.Random(99)
        arrival_rng = random.Random(main_rng.getrandbits(64))
        gaps = [arrival_rng.expovariate(spec.rate) for _ in range(300)]
        expected = list(accumulate(gaps))
        assert coordinator.issue_times == expected

    def test_heap_holds_one_pending_arrival(self):
        # 200k operations used to mean 200k heap entries before the
        # first one ran; now start() schedules exactly one arrival and
        # the heap never accumulates the whole horizon.
        spec = WorkloadSpec(
            operations=200_000, keys=4, arrival="poisson", rate=10.0
        )
        scheduler = Scheduler()
        coordinator = InstantCoordinator(scheduler)
        workload = Workload(
            spec=spec,
            coordinator=[coordinator],
            clock=scheduler,
            rng=random.Random(1),
            on_outcome=lambda outcome: None,
        )
        workload.start()
        assert scheduler.pending_events == 1
        for _ in range(1000):
            scheduler.step()
        assert scheduler.pending_events <= 1

    def test_closed_loop_unaffected(self):
        spec = WorkloadSpec(operations=50, keys=4)
        scheduler, coordinator = _drive(spec, seed=5)
        assert len(coordinator.issue_times) == 50
        assert scheduler.now == 0.0  # instant ops, no arrival process
