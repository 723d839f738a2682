"""Perf trajectory of the bitset quorum kernel vs. the frozenset reference.

Times enumeration+packing, exact availability (2^n live-set enumeration),
Monte-Carlo availability, bi-coterie verification and the LP
membership-matrix build across the protocol zoo at several
sizes, on both the pure-Python reference paths and the packed kernel, and
writes ``benchmarks/results/BENCH_quorum_kernel.json`` — the baseline that
future performance PRs regress against.

Two tiers:

* ``--quick`` (and the pytest smoke test, used by the CI perf-smoke job):
  small sizes only, finishes in seconds;
* the default full run adds the headline cases — exact availability at
  n = 20/22 (the 2^n pure-Python worst case) and bi-coterie verification at
  the largest zoo sizes — and asserts the acceptance floors (>= 5x on exact
  availability at n = 20, >= 3x on the large bi-coterie checks).

Run directly::

    PYTHONPATH=src python benchmarks/bench_quorum_kernel.py [--quick] [--out P]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

try:
    from benchmarks.perf_harness import Case, run_suite, write_bench_json
except ImportError:  # direct `python benchmarks/bench_quorum_kernel.py`
    sys.path.insert(0, str(Path(__file__).parent))
    from perf_harness import Case, run_suite, write_bench_json

from repro.protocols.zoo import quorum_system
from repro.quorums.availability import (
    _availability_by_universe_enumeration,
    _estimate_monte_carlo_reference,
    _normalise_probabilities,
)
from repro.quorums.base import SetSystem, _is_cross_intersecting_sets
from repro.quorums.bitset import (
    PackedQuorums,
    availability_by_universe_enumeration,
    estimate_availability_monte_carlo_packed,
)
from repro.quorums.load import (
    _membership_matrix_reference,
    _membership_matrix,
)
from repro.quorums.system import QuorumSystem


class StripedSystem(QuorumSystem):
    """Synthetic n-replica striped bi-coterie (multi-word mask stress)."""

    name = "striped"

    def __init__(self, n: int, stripes: int) -> None:
        self._n, self._stripes = n, stripes

    @property
    def universe(self):
        return frozenset(range(self._n))

    def read_quorums(self):
        width = self._n // self._stripes
        for s in range(self._stripes):
            yield frozenset(range(s * width, (s + 1) * width))

    def write_quorums(self):
        width = self._n // self._stripes
        for offset in range(width):
            yield frozenset(s * width + offset for s in range(self._stripes))


def _materialised(protocol: str, n: int):
    if protocol == "striped":
        system = StripedSystem(n, max(2, n // 16))
    else:
        system = quorum_system(protocol, n)
    return (
        system,
        tuple(system.read_quorums()),
        tuple(system.write_quorums()),
    )


def _pack_case(protocol: str, n: int) -> Case:
    # The kernel side packs through from_system: combinatorial protocols
    # enumerate their collections directly as integer masks (no frozenset
    # per quorum), which is how the packed consumers now build their
    # matrices.  The reference side is the frozenset path's setup cost —
    # materialising the same enumeration.
    system, reads, _ = _materialised(protocol, n)

    def reference():
        return len(tuple(system.read_quorums()))

    def kernel():
        return len(PackedQuorums.from_system(system, "read"))

    return Case(f"enumerate+pack/{system.name}/n={system.n}", reference, kernel)


def _exact_case(protocol: str, n: int, op: str, repeat: int) -> Case:
    system, reads, writes = _materialised(protocol, n)
    quorums = reads if op == "read" else writes
    probabilities = _normalise_probabilities(system.universe, 0.85)
    packed = PackedQuorums.from_quorums(quorums, universe=system.universe)
    return Case(
        f"exact_availability/{system.name}/n={system.n}/{op}",
        lambda: _availability_by_universe_enumeration(quorums, probabilities),
        lambda: availability_by_universe_enumeration(packed, probabilities),
        repeat=repeat,
    )


def _monte_carlo_case(protocol: str, n: int, samples: int) -> Case:
    system, reads, _ = _materialised(protocol, n)
    probabilities = _normalise_probabilities(system.universe, 0.85)
    packed = PackedQuorums.from_quorums(reads, universe=system.universe)
    return Case(
        f"monte_carlo/{system.name}/n={system.n}/samples={samples}",
        lambda: _estimate_monte_carlo_reference(
            reads, probabilities, samples, 0
        ),
        lambda: estimate_availability_monte_carlo_packed(
            packed, probabilities, samples, 0
        ),
    )


def _bicoterie_case(protocol: str, n: int, repeat: int) -> Case:
    system, reads, writes = _materialised(protocol, n)
    packed_reads = PackedQuorums.from_quorums(reads, universe=system.universe)
    packed_writes = PackedQuorums.from_quorums(writes, universe=system.universe)
    return Case(
        f"bicoterie/{system.name}/n={system.n}/m={len(reads)}x{len(writes)}",
        lambda: _is_cross_intersecting_sets(reads, writes),
        lambda: packed_reads.cross_intersects(packed_writes),
        repeat=repeat,
    )


def _lp_membership_case(protocol: str, n: int) -> Case:
    # Kernel side extracts from a collection packed outside the timed
    # region; the one-time pack cost is reported by the enumerate+pack cases.
    system, reads, _ = _materialised(protocol, n)
    set_system = SetSystem(reads, universe=system.universe)
    packed = PackedQuorums.from_quorums(reads, universe=system.universe)
    return Case(
        f"lp_membership/{system.name}/n={system.n}/m={len(reads)}",
        lambda: _membership_matrix_reference(set_system),
        lambda: _membership_matrix(set_system, packed=packed),
        agree=lambda a, b: (a[0] == b[0]).all() and a[1] == b[1],
    )


def build_cases(quick: bool) -> list[Case]:
    cases = [
        _pack_case("arbitrary", 13),
        _pack_case("majority", 13),
        _pack_case("grid", 16),
        _exact_case("arbitrary", 13, "read", repeat=3),
        _exact_case("hqc", 9, "read", repeat=3),
        _exact_case("grid", 16, "read", repeat=1),
        _monte_carlo_case("majority", 13, samples=20_000),
        _monte_carlo_case("tree-quorum", 15, samples=20_000),
        _bicoterie_case("majority", 13, repeat=3),
        _bicoterie_case("grid", 16, repeat=3),
        _bicoterie_case("tree-quorum", 15, repeat=3),
        _lp_membership_case("majority", 13),
        _lp_membership_case("hqc", 27),
    ]
    if not quick:
        cases += [
            # The 2^n pure-Python worst cases (acceptance: >= 5x at n = 20).
            _exact_case("arbitrary", 20, "read", repeat=1),
            _exact_case("arbitrary", 22, "write", repeat=1),
            # Bi-coterie verification at the largest enumerable zoo sizes
            # (acceptance: >= 3x).
            _bicoterie_case("majority", 15, repeat=1),
            _bicoterie_case("arbitrary", 64, repeat=1),
            _bicoterie_case("grid", 25, repeat=1),
            # Multi-word (n = 256 -> four 64-bit words) kernels.
            _monte_carlo_case("striped", 256, samples=100_000),
            _bicoterie_case("striped", 256, repeat=3),
            _monte_carlo_case("hqc", 27, samples=100_000),
        ]
    return cases


def summarise(results: list[dict]) -> dict:
    def speedups(prefix: str) -> dict[str, float]:
        return {
            r["case"]: r["speedup"]
            for r in results
            if r["case"].startswith(prefix)
        }

    summary: dict = {
        "all_values_agree": all(r["values_agree"] for r in results),
        "median_speedup": float(
            np.median([r["speedup"] for r in results])
        ),
    }
    exact_n20 = [
        r["speedup"]
        for r in results
        if r["case"].startswith("exact_availability") and "/n=20/" in r["case"]
    ]
    if exact_n20:
        summary["exact_availability_n20_speedup"] = exact_n20[0]
    # Acceptance floor: the largest *zoo* collections.  The synthetic
    # striped/n=256 bi-coterie is excluded — its 16x16 collection is so
    # small that both sides finish in tens of microseconds and the ratio
    # is timing noise.
    large_bicoterie = [
        speedup
        for case, speedup in speedups("bicoterie").items()
        if "striped" not in case
        and any(f"/n={n}/" in case for n in (15, 25, 64))
    ]
    if large_bicoterie:
        summary["bicoterie_largest_min_speedup"] = min(large_bicoterie)
    return summary


def run(quick: bool, out: str | None = None) -> dict:
    results = run_suite(build_cases(quick))
    summary = summarise(results)
    path = write_bench_json("quorum_kernel", results, summary, out=out)
    print(f"\nwrote {path}")
    print(f"summary: {summary}")
    assert summary["all_values_agree"], "kernel/reference value mismatch"
    if not quick:
        assert summary["exact_availability_n20_speedup"] >= 5.0
        assert summary["bicoterie_largest_min_speedup"] >= 3.0
    return summary


def test_quorum_kernel_perf_smoke(emit):
    """CI smoke: quick tier, every kernel value identical to its reference.

    Writes to a ``_smoke`` JSON so a local pytest run never clobbers the
    recorded full-run trajectory in ``BENCH_quorum_kernel.json``.
    """
    from benchmarks.perf_harness import RESULTS_DIR

    summary = run(
        quick=True, out=str(RESULTS_DIR / "BENCH_quorum_kernel_smoke.json")
    )
    emit(
        "quorum_kernel_smoke",
        "bitset kernel perf smoke: "
        f"median speedup {summary['median_speedup']:.1f}x, "
        f"values agree: {summary['all_values_agree']}",
    )
    assert summary["all_values_agree"]
    # The kernel must win on balance even at CI-sized instances.
    assert summary["median_speedup"] >= 1.0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes only (CI perf-smoke tier)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default benchmarks/results/BENCH_quorum_kernel.json)",
    )
    arguments = parser.parse_args()
    run(quick=arguments.quick, out=arguments.out)
