"""Client workload generation.

A :class:`Workload` issues a stream of read/write operations against a
coordinator: the read/write mix, arrival process and key popularity are all
configurable.  The workload is the empirical counterpart of the paper's
"frequencies of read and write operations" that drive tree configuration.

Scale notes (millions of keys, millions of arrivals):

* Zipf key popularity is sampled through **precomputed cumulative
  weights** — ``random.choices(cum_weights=...)`` bisects in O(log keys)
  per operation instead of re-accumulating an O(keys) weight list per
  pick, so a million-key spec samples at the same per-op cost as a
  sixteen-key one.  The cumulative list is exactly
  ``itertools.accumulate`` of the old per-rank weights, which is what
  ``random.choices(weights=...)`` built internally, so the sampled key
  stream is bit-identical to the old implementation.
* Poisson arrivals are scheduled **incrementally**: each arrival event
  schedules its successor, so the event heap holds one pending arrival
  instead of all N at t=0.  Inter-arrival gaps come from a dedicated
  arrival RNG (derived from the workload stream with one ``getrandbits``
  draw) so the gap draws never interleave with the key/op-type draws —
  the chained schedule is bit-identical to the old draw-everything-
  upfront schedule over the same arrival stream.
"""

from __future__ import annotations

import random
from bisect import bisect
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

from repro.sim.coordinator import OperationOutcome, QuorumCoordinator

if TYPE_CHECKING:
    from repro.runtime.interfaces import Clock


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a workload.

    Attributes
    ----------
    operations:
        Total number of operations to issue.
    read_fraction:
        Probability each operation is a read (the paper's read frequency).
    keys:
        Size of the key space (keys are ``"k0" .. f"k{keys-1}"``).
    arrival:
        ``"closed"`` — issue the next operation when the previous one
        finishes (one outstanding op; cleanest for load measurement), or
        ``"poisson"`` — open-loop Poisson arrivals at ``rate`` ops per time
        unit (exercises locking and concurrency).
    rate:
        Arrival rate for the Poisson process.
    zipf_s:
        Zipf skew for key popularity; 0 means uniform.
    """

    operations: int = 1000
    read_fraction: float = 0.5
    keys: int = 16
    arrival: str = "closed"
    rate: float = 1.0
    zipf_s: float = 0.0

    def __post_init__(self) -> None:
        if self.operations < 0:
            raise ValueError("operations must be non-negative")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.keys < 1:
            raise ValueError("need at least one key")
        if self.arrival not in ("closed", "poisson"):
            raise ValueError(f"unknown arrival process {self.arrival!r}")
        if self.arrival == "poisson" and self.rate <= 0:
            raise ValueError("poisson arrivals need a positive rate")
        if self.zipf_s < 0:
            raise ValueError("zipf skew must be non-negative")


class Workload:
    """Drives one or more coordinators according to a :class:`WorkloadSpec`,
    round-robin over the coordinators.

    ``clock`` is the simulator's ``Scheduler`` or a TCP cluster's
    ``AsyncClock``: Poisson arrivals accumulate from its ``now`` at
    :meth:`start` (0.0 in the simulator), each armed with ``call_at``.

    ``on_outcome`` (the sink: the monitor and any observer) is released
    when the last outcome reports, as the completion hook is, so the
    reference cycles the run leaves behind (workload, coordinators,
    sites, network) keep no monitor alive until the next collection.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        coordinator: QuorumCoordinator | Sequence[QuorumCoordinator],
        clock: Clock,
        rng: random.Random,
        on_outcome: Callable[[OperationOutcome], None],
    ) -> None:
        self._spec = spec
        if isinstance(coordinator, QuorumCoordinator):
            self._coordinators: tuple[QuorumCoordinator, ...] = (coordinator,)
        else:
            self._coordinators = tuple(coordinator)
            if not self._coordinators:
                raise ValueError("need at least one coordinator")
        self._clock = clock
        self._rng = rng
        self._on_outcome: Callable[[OperationOutcome], None] | None = on_outcome
        #: Bound once: every operation carries it as its ``on_done``.
        self._done = self._op_done
        self._on_complete: Callable[[], None] | None = None
        self._issued = 0
        self._completed = 0
        self._scheduled_arrivals = 0
        self._next_arrival_at = 0.0
        self._arrival_rng: random.Random | None = None
        self._next_value = 0
        self._cum_weights = self._build_cum_weights()
        #: key index -> interned "k<i>" name, filled on first use.  Under
        #: a Zipf-skewed draw the hit rate is high and a dict probe beats
        #: re-formatting the f-string on every operation; lazy (not a
        #: prebuilt list) so million-key specs pay only for keys touched.
        self._key_names: dict[int, str] = {}

    def _build_cum_weights(self) -> list[float] | None:
        """Cumulative Zipf weights, computed once per workload.

        ``random.choices(weights=w)`` accumulates ``w`` on *every call* —
        O(keys) per operation, which is what made million-key specs
        unusable.  Accumulating here once and passing ``cum_weights=``
        keeps each pick at one O(log keys) bisect while drawing exactly
        the same stream (``choices`` bisects the identical cumulative
        list either way).
        """
        if self._spec.zipf_s == 0.0:
            return None
        return list(accumulate(
            1.0 / (rank**self._spec.zipf_s)
            for rank in range(1, self._spec.keys + 1)
        ))

    def _pick_key_index(self) -> int:
        cum_weights = self._cum_weights
        if cum_weights is None:
            return self._rng.randrange(self._spec.keys)
        # Inlined ``random.choices(cum_weights=...)`` for a single draw:
        # choices wraps exactly this one random() + bisect in a k=1 list
        # comprehension plus argument validation, all per call.  Same
        # draw, same bisect bounds — the stream stays bit-identical
        # (guarded by the workload bit-identity regression tests).
        return bisect(
            cum_weights,
            self._rng.random() * cum_weights[-1],
            0,
            self._spec.keys - 1,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin issuing operations."""
        if self._spec.operations == 0:
            self._maybe_complete()
            return
        if self._spec.arrival == "closed":
            self._issue_one()
        else:
            # Gap draws live on their own child stream so that chaining
            # them through arrival events (instead of drawing all of them
            # up front) cannot interleave with — and thereby perturb —
            # the key/op-type draws on the main workload stream.
            self._arrival_rng = random.Random(self._rng.getrandbits(64))
            self._next_arrival_at = self._clock.now
            self._schedule_next_arrival()

    def _schedule_next_arrival(self) -> None:
        """Chain-schedule the next open-loop arrival (one in flight).

        The previous implementation pushed all N arrival events onto the
        heap at t=0 — O(operations) heap memory and an O(N log N) start
        transient.  Each arrival now schedules its successor, so the heap
        holds a single pending arrival regardless of workload size.
        """
        if self._scheduled_arrivals >= self._spec.operations:
            return
        self._scheduled_arrivals += 1
        self._next_arrival_at += self._arrival_rng.expovariate(
            self._spec.rate
        )
        # call_at == schedule_at minus the EventHandle nobody keeps
        # (arrivals are never cancelled); same float round-trip, so the
        # event times are bit-identical.
        self._clock.call_at(self._next_arrival_at, self._arrive)

    def _arrive(self) -> None:
        self._schedule_next_arrival()
        self._issue_one()

    def _issue_one(self) -> None:
        if self._issued >= self._spec.operations:
            return
        key_index = self._pick_key_index()
        coordinator = self._coordinators[
            self._issued % len(self._coordinators)
        ]
        self._issued += 1
        key = self._key_names.get(key_index)
        if key is None:
            key = self._key_names[key_index] = f"k{key_index}"
        if self._rng.random() < self._spec.read_fraction:
            coordinator.read(key, self._done)
        else:
            value = f"v{self._next_value}"
            self._next_value += 1
            coordinator.write(key, value, self._done)

    def add_on_complete(self, callback: Callable[[], None]) -> None:
        """Set the one completion hook: it fires once, when the last
        outcome reports (the engine stops the scheduler's drain loop, a
        TCP cluster resolves the future its run awaits)."""
        self._on_complete = callback

    def _op_done(self, outcome: OperationOutcome) -> None:
        self._completed += 1
        self._on_outcome(outcome)
        if self._spec.arrival == "closed" and self._issued < self._spec.operations:
            self._issue_one()
        self._maybe_complete()

    def _maybe_complete(self) -> None:
        if self._completed < self._spec.operations:
            return
        self._on_outcome = None
        if self._on_complete:
            callback, self._on_complete = self._on_complete, None
            callback()

    @property
    def spec(self) -> WorkloadSpec:
        """The workload's parameters."""
        return self._spec

    @property
    def coordinators(self) -> tuple[QuorumCoordinator, ...]:
        """The coordinators operations are round-robined over."""
        return self._coordinators

    @property
    def issued(self) -> int:
        """Operations issued so far."""
        return self._issued

    @property
    def completed(self) -> int:
        """Operations whose outcome has been reported."""
        return self._completed
