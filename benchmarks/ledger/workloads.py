"""Workload definitions and seeded input generators of the ledger.

Everything here is a constant or a pure function of ``--seed``: the
program under test only ever receives the generated inputs.  The
constants are frozen (not derived from a measurement at run time) so two
runs of two commits offer exactly the same load.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The paper's canonical tree: logical root over physical levels of 3
#: and 5, eight replicas.
TREE_SPEC = "1-3-5"

#: TCP key space ``k0..k63``, uniform popularity, 32-byte string values.
TCP_KEYS = 64
VALUE_BYTES = 32

#: Closed-loop client tasks (all in the coordinator's own event loop).
CLOSED_CLIENTS = 16

#: Both measured phases are cut into this many segments and every
#: end-to-end timing is the median of the per-segment values.
SEGMENTS = 5

#: A per-segment p99 is reported only with at least this many samples.
P99_MIN_SAMPLES = 1000

#: Cluster set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The §3.2 ceiling of ``tcp-site-bound``: a level-1 site sees
#: 0.9·⅓ + 0.1·(⅓ + ½·2) = 0.433 messages per op, so a 4 ms service
#: time caps the cluster at 1 / (0.433 × 0.004) = 577 ops/s.
SITE_BOUND_CEILING_OPS = 577.0

#: ``sim-saturated``: the configuration ``bench_simcore.py`` calls
#: ``single_group_legacy``.
SIM_OPERATIONS = 60_000
SIM_QUICK_OPERATIONS = 10_000
#: One derived seed per this many ``--seconds`` (about what a full
#: repeat took when the ledger was defined, so ``--seconds 20`` simulates
#: five seeds), and never fewer than three.
SIM_SECONDS_PER_SEED = 4.0
SIM_MIN_SEEDS = 3


@dataclass(frozen=True)
class TcpWorkload:
    """One traffic mix against real ``repro serve`` processes."""

    name: str
    read_fraction: float
    #: Fixed open-loop Poisson rate, about a quarter of the saturation
    #: throughput measured when the ledger was defined.
    open_rate: float
    #: ``repro serve --service-time`` of every site, in seconds.
    service_time: float = 0.0
    #: Coordinator quorum-phase timeout, in seconds.
    timeout: float = 1.0


TCP_WORKLOADS = {
    workload.name: workload
    for workload in (
        TcpWorkload("tcp-read-heavy", read_fraction=0.9, open_rate=1500.0),
        TcpWorkload("tcp-write-heavy", read_fraction=0.1, open_rate=450.0),
        TcpWorkload(
            "tcp-site-bound", read_fraction=0.9, open_rate=250.0,
            service_time=0.004, timeout=5.0,
        ),
    )
}

SIM_WORKLOAD = "sim-saturated"

WORKLOAD_NAMES = (*TCP_WORKLOADS, SIM_WORKLOAD)


def key_name(index: int) -> str:
    return f"k{index}"


def seed_value(index: int) -> str:
    """The value every key holds before the measured phases start."""
    return f"seed-{index}".ljust(VALUE_BYTES, ".")


class OpStream:
    """The closed/open-loop operation sequence: a pure function of the seed.

    Each draw is ``(is_read, key, value)``; ``value`` is ``None`` for a
    read and a unique 32-byte string for a write, so a value read back
    names the put that wrote it.
    """

    def __init__(
        self, seed: int | str, read_fraction: float, keys: int = TCP_KEYS
    ) -> None:
        self._rng = random.Random(seed)
        self._read_fraction = read_fraction
        self._keys = keys
        self._writes = 0

    def next(self) -> tuple[bool, str, str | None]:
        rng = self._rng
        key = key_name(rng.randrange(self._keys))
        if rng.random() < self._read_fraction:
            return True, key, None
        self._writes += 1
        return False, key, f"w{self._writes}".ljust(VALUE_BYTES, ".")


def poisson_schedule(
    seed: int | str, rate: float, duration: float
) -> list[float]:
    """Due times (seconds from phase start) of a Poisson process."""
    rng = random.Random(seed)
    due: list[float] = []
    at = rng.expovariate(rate)
    while at < duration:
        due.append(at)
        at += rng.expovariate(rate)
    return due
