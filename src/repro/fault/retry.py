"""Retry policies: how long a coordinator waits before trying again.

The coordinator's original retry loop was hard-wired: an attempt that
timed out (or had a vote refused) was retried immediately, and an attempt
that found no live quorum waited one phase ``timeout``.  Under
churn that is the worst possible shape — every client hammers the system
in lockstep the instant a timeout fires, and keeps hammering at the same
cadence while the failure persists.

A :class:`RetryPolicy` makes the shape pluggable:

* :class:`FixedDelay` — a constant delay before every retry (zero
  reproduces the legacy immediate-retry behaviour exactly);
* :class:`ExponentialBackoff` — delays grow geometrically from ``base``
  up to ``cap``, with optional *deterministic seeded jitter*: the jitter
  factor for attempt ``k`` is a pure function of ``(seed, k)``, so a run
  is bit-for-bit reproducible under a fixed master seed — including
  across the parallel runner's process pool — while different
  coordinators (different seeds) still decorrelate.

Policies answer two questions, both in simulated time units:

* :meth:`RetryPolicy.retry_delay` — wait before re-attempting after a
  quorum timeout / refused vote on attempt ``attempt`` (1-based count of
  attempts already made);
* :meth:`RetryPolicy.unavailable_delay` — wait before re-probing when no
  live quorum exists at all (the detection delay of an unavailability
  probe round).  ``None`` defers to the coordinator's phase
  ``timeout``.

:class:`RetryPolicySpec` is the picklable plain-data form carried by
simulation configs and the parallel runner; ``spec.build(seed)``
instantiates the policy inside a worker.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass


class RetryPolicy(abc.ABC):
    """Delay schedule for quorum-operation retries."""

    @abc.abstractmethod
    def retry_delay(self, attempt: int) -> float:
        """Delay before the next attempt, after ``attempt`` attempts failed."""

    @abc.abstractmethod
    def unavailable_delay(self, attempt: int) -> float | None:
        """Delay before re-probing an unavailable system (``None`` =
        use the coordinator's configured unavailability delay)."""


@dataclass(frozen=True)
class FixedDelay(RetryPolicy):
    """A constant delay before every retry.

    ``FixedDelay(0.0)`` is the legacy coordinator behaviour: retry the
    instant the failure is detected.
    """

    delay: float = 0.0
    unavailable: float | None = None

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError("retry delay cannot be negative")
        if self.unavailable is not None and self.unavailable < 0:
            raise ValueError("unavailable delay cannot be negative")

    def retry_delay(self, attempt: int) -> float:
        return self.delay

    def unavailable_delay(self, attempt: int) -> float | None:
        return self.unavailable


def _jitter_fraction(seed: int, attempt: int) -> float:
    """A uniform [0, 1) draw that is a pure function of (seed, attempt).

    Deriving jitter from a stateless hash rather than a shared RNG stream
    keeps it reproducible no matter how attempts interleave across
    concurrent operations — the delay of attempt ``k`` never depends on
    what other operations did in between.
    """
    return random.Random((seed << 20) ^ attempt).random()


@dataclass(frozen=True)
class ExponentialBackoff(RetryPolicy):
    """Capped geometric backoff with deterministic seeded jitter.

    The undithered delay after ``attempt`` failures is
    ``min(cap, base * factor ** (attempt - 1))``; with ``jitter = j`` it
    is scaled by a factor drawn uniformly from ``[1 - j, 1 + j]`` using
    the ``(seed, attempt)`` hash above.
    """

    base: float = 1.0
    factor: float = 2.0
    cap: float = 60.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError("base delay cannot be negative")
        if self.factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if self.cap < self.base:
            raise ValueError("cap must be at least the base delay")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def retry_delay(self, attempt: int) -> float:
        if attempt < 1:
            raise ValueError("attempt counts are 1-based")
        delay = min(self.cap, self.base * self.factor ** (attempt - 1))
        if self.jitter:
            spread = 2.0 * _jitter_fraction(self.seed, attempt) - 1.0
            delay *= 1.0 + self.jitter * spread
        return delay

    def unavailable_delay(self, attempt: int) -> float | None:
        # An unavailable system deserves backoff too: probing costs a
        # detection round, and blind fixed-cadence probes are exactly the
        # lockstep behaviour this policy exists to break.
        return self.retry_delay(attempt)


@dataclass(frozen=True)
class RetryPolicySpec:
    """Picklable description of a retry policy (the config/CLI form).

    ``kind`` is ``"fixed"`` or ``"exponential"``; :meth:`build` derives
    the concrete policy, folding ``seed`` (typically a per-coordinator
    child seed) into the jitter hash so distinct coordinators never
    back off in lockstep.
    """

    kind: str = "fixed"
    base: float = 0.0
    factor: float = 2.0
    cap: float = 60.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "exponential"):
            raise ValueError(f"unknown retry policy kind {self.kind!r}")

    def build(self, seed: int = 0) -> RetryPolicy:
        """Instantiate the described policy (validating its parameters)."""
        if self.kind == "fixed":
            return FixedDelay(delay=self.base)
        return ExponentialBackoff(
            base=self.base if self.base > 0 else 1.0,
            factor=self.factor,
            cap=self.cap,
            jitter=self.jitter,
            seed=seed,
        )
