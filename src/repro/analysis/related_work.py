"""The introduction's related-work comparison as an executable table.

Section 1 of the paper walks through the replica control landscape with a
specific cost/load figure for each protocol.  This module reproduces that
survey as data: one :class:`RelatedWorkEntry` per protocol with the intro's
formulas evaluated at a given ``n`` (snapped to each protocol's admissible
sizes), used by ``benchmarks/bench_paper.py``.

Every constructible protocol comes out of :mod:`repro.protocols.zoo` as a
unified :class:`~repro.quorums.system.QuorumSystem`; the per-row load
figures are read through the interface's ``load(op)`` accessor (which each
protocol backs with its closed form), and the cost columns through each
protocol's ``read_cost`` / ``write_cost`` or its own cost accessors.

Two of the surveyed tree protocols are represented by their published cost
formulas only (the paper cites but does not define them):

* Koch [7] — ternary tree (S = 3), read cost 1 .. S^h, write cost
  O(log n); cost-1 reads load the root: load 1;
* Choi-Youn-Choi [5] — symmetric ternary tree, read cost 1 .. S^(h/2),
  write cost O(log n); cost-1 reads induce load 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.metrics import read_cost as arbitrary_read_cost
from repro.core.metrics import write_cost_avg
from repro.protocols.zoo import fpp_system, quorum_system


@dataclass(frozen=True)
class RelatedWorkEntry:
    """One row of the intro survey, evaluated at a concrete size."""

    protocol: str
    reference: str
    n: int
    read_cost_best: float
    read_cost_worst: float
    write_cost: float
    read_load: float
    write_load: float


def _nearest(sizes: list[int], n: int) -> int:
    return min(sizes, key=lambda candidate: abs(candidate - n))


def survey(n: int = 121) -> list[RelatedWorkEntry]:
    """Evaluate every intro protocol at (approximately) ``n`` replicas."""
    entries: list[RelatedWorkEntry] = []

    rowa = quorum_system("rowa", n)
    entries.append(RelatedWorkEntry(
        protocol="ROWA", reference="[3]", n=rowa.n,
        read_cost_best=int(rowa.read_cost()),
        read_cost_worst=int(rowa.read_cost()),
        write_cost=int(rowa.write_cost()),
        read_load=rowa.load("read"), write_load=rowa.load("write"),
    ))

    majority = quorum_system("majority", n)
    entries.append(RelatedWorkEntry(
        protocol="Majority", reference="[13]", n=majority.n,
        read_cost_best=majority.read_cost(),
        read_cost_worst=majority.read_cost(),
        write_cost=majority.write_cost(),
        read_load=majority.load("read"), write_load=majority.load("write"),
    ))

    fpp = fpp_system(n)
    entries.append(RelatedWorkEntry(
        protocol="FPP (sqrt n)", reference="[9]", n=fpp.n,
        read_cost_best=int(fpp.read_cost()),
        read_cost_worst=int(fpp.read_cost()),
        write_cost=int(fpp.write_cost()),
        read_load=fpp.load("read"), write_load=fpp.load("write"),
    ))

    grid = quorum_system("grid", n)
    entries.append(RelatedWorkEntry(
        protocol="Grid", reference="[4]", n=grid.n,
        read_cost_best=grid.read_cost(), read_cost_worst=grid.read_cost(),
        write_cost=grid.write_cost(),
        read_load=grid.load("read"), write_load=grid.load("write"),
    ))

    binary = quorum_system("tree-quorum", n)
    entries.append(RelatedWorkEntry(
        protocol="Tree quorum", reference="[2]", n=binary.n,
        read_cost_best=binary.min_cost(), read_cost_worst=binary.max_cost(),
        write_cost=binary.average_cost(),
        read_load=binary.load("read"), write_load=binary.load("write"),
    ))

    hqc = quorum_system("hqc", n)
    entries.append(RelatedWorkEntry(
        protocol="HQC", reference="[8]", n=hqc.n,
        read_cost_best=hqc.quorum_size(), read_cost_worst=hqc.quorum_size(),
        write_cost=hqc.quorum_size(),
        read_load=hqc.load("read"), write_load=hqc.load("write"),
    ))

    ae = quorum_system("ae-tree", n)
    entries.append(RelatedWorkEntry(
        protocol="AE tree (VLDB90)", reference="[1]", n=ae.n,
        read_cost_best=ae.read_cost_min(), read_cost_worst=ae.read_cost_max(),
        write_cost=ae.write_cost_exact(),
        read_load=ae.load("read"), write_load=ae.load("write"),
    ))

    entries.append(koch_model(n))
    entries.append(choi_model(n))

    arbitrary = quorum_system("arbitrary", n)
    entries.append(RelatedWorkEntry(
        protocol="Arbitrary (this paper)", reference="-", n=arbitrary.n,
        read_cost_best=arbitrary_read_cost(arbitrary.tree),
        read_cost_worst=arbitrary_read_cost(arbitrary.tree),
        write_cost=write_cost_avg(arbitrary.tree),
        read_load=arbitrary.load("read"),
        write_load=arbitrary.load("write"),
    ))
    return entries


def _ternary_height(n: int) -> tuple[int, int]:
    """(height, size) of the complete ternary tree with size nearest n."""
    sizes = {(3 ** (h + 1) - 1) // 2: h for h in range(1, 10)}
    snapped = _nearest(list(sizes), n)
    return sizes[snapped], snapped


def koch_model(n: int) -> RelatedWorkEntry:
    """Koch [7] per the intro: reads 1..3^h, writes O(log n), load 1."""
    height, snapped = _ternary_height(n)
    return RelatedWorkEntry(
        protocol="Koch", reference="[7]", n=snapped,
        read_cost_best=1, read_cost_worst=3.0**height,
        write_cost=math.log(snapped, 3) + 1,   # O(log n) path-style writes
        read_load=1.0,                          # cost-1 reads hit the root
        write_load=1.0,                         # the root is in every write
    )


def choi_model(n: int) -> RelatedWorkEntry:
    """Choi-Youn-Choi [5] per the intro: reads 1..3^(h/2), load 0.5."""
    height, snapped = _ternary_height(n)
    return RelatedWorkEntry(
        protocol="Choi symmetric", reference="[5]", n=snapped,
        read_cost_best=1, read_cost_worst=3.0 ** (height / 2),
        write_cost=math.log(snapped, 3) + 1,
        read_load=0.5,                          # the intro's quoted load
        write_load=1.0,
    )
