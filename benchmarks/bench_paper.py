"""The paper's reproduction: one table of claims, then its figures and tables.

Each row of ``CLAIMS`` is one claim of the paper: an id, its PAPER.md
section, the closed form as this library computes it, an independent check
and a tolerance.  A check never calls the closed form it checks; it is one
of

* the generic ``scipy`` LP optimum (``QuorumSystem.load`` /
  ``load_vector``, which bypass a protocol's closed-form override);
* the Appendix 6 dual certificate (``core/proofs.py``);
* enumeration: the quorums themselves, a ``BiCoterie`` / ``Coterie``, a
  strategy over the enumerated quorums, or exact availability;
* a crossover or stability scan (``analysis/crossover.py``,
  ``analysis/expected.py``), against the size or ``p`` the paper states.

``test_claim`` asserts every row and ``test_claims_file`` writes
``results/paper_claims.txt``, one line per row.  Relational claims (an
ordering across configurations, a monotone trend) are the plain tests
below the table, and the figure and table tests write the other result
files under ``benchmarks/results/``::

    PYTHONPATH=src python -m pytest benchmarks/bench_paper.py --benchmark-disable
"""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Callable
from dataclasses import dataclass

import pytest

from repro.analysis.crossover import (
    expected_write_crossover_p,
    quantity_crossover_n,
)
from repro.analysis.expected import stability_report
from repro.analysis.formulas import evaluate_all
from repro.analysis.related_work import survey
from repro.analysis.sweeps import figure2_series, figure3_series, figure4_series
from repro.analysis.tables import format_series, format_table
from repro.core import analyse, metrics
from repro.core.builder import (
    _spread,
    algorithm_1,
    from_physical_level_sizes,
    from_spec,
    mostly_read,
    mostly_write,
    recommended_tree,
    sqrt_levels,
    unmodified_binary,
)
from repro.core.config import Configuration
from repro.core.metrics import limit_read_availability, limit_write_availability
from repro.core.proofs import (
    prove_lower_bound_for_binary_tree,
    prove_read_load,
    prove_write_load,
)
from repro.core.protocol import ArbitraryProtocol
from repro.core.tree import ArbitraryTree
from repro.core.tuning import recommend
from repro.protocols.agrawal_tree import AgrawalTreeProtocol
from repro.protocols.fpp import FiniteProjectivePlaneProtocol
from repro.protocols.majority import MajorityProtocol
from repro.protocols.rowa import RowaProtocol
from repro.protocols.tree_quorum import TreeQuorumProtocol
from repro.protocols.zoo import quorum_system
from repro.quorums.base import Coterie, SetSystem
from repro.quorums.load import optimal_load
from repro.quorums.strategy import Strategy, system_load
from repro.quorums.system import QuorumSystem

P = 0.7
SIZES = (15, 31, 63, 127, 255, 511)
FIRST_FOUR = (
    Configuration.BINARY,
    Configuration.HQC,
    Configuration.UNMODIFIED,
    Configuration.ARBITRARY,
)
LP_SPECS = (
    "1-3-5", "1-2-2-2", "1-4-4-4", "1-2-3-4", "1-5", "1-8",
    "P1-2-4", "P1-3-9", "1-2-2-2-2-2", "1-3-3-6",
)
BINARY_SIZES = (3, 7, 15, 31, 63, 127, 255, 511, 1023)
ALGORITHM1_SIZES = (65, 100, 144, 225, 400, 625, 1024, 2500, 10_000)
BICOTERIE_TREES = (
    [from_spec(spec) for spec in ("1-3-5", "1-2-2-2", "1-4-4", "P1-2-4", "1-9")]
    + [mostly_read(n) for n in (2, 8, 33)]
    + [mostly_write(n) for n in (5, 9, 15)]
    + [sqrt_levels(n) for n in (6, 12, 20, 30)]
    + [recommended_tree(40), unmodified_binary(15)]
)


# ----------------------------------------------------------------------
# the claims table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    id: str
    section: str
    closed: Callable[[], float]
    check: Callable[[], float]
    tol: float


@functools.cache
def evaluate(claim: Claim) -> tuple[float, float, bool]:
    closed, check = float(claim.closed()), float(claim.check())
    return closed, check, abs(closed - check) <= claim.tol


def _lp(system: QuorumSystem, op: str) -> float:
    """The generic LP optimum, not the protocol's closed-form ``load``."""
    return QuorumSystem.load(system, op)


def _certified(proof) -> float:
    return proof.claimed_load if proof.optimal else math.nan


def _enumerated_availability(quorums, n: int, p: float) -> float:
    """Probability some quorum is all up, summed over all 2^n up-sets."""
    masks = [sum(1 << sid for sid in quorum) for quorum in quorums]
    total = 0.0
    for up in range(1 << n):
        if any(mask & up == mask for mask in masks):
            k = bin(up).count("1")
            total += p**k * (1.0 - p) ** (n - k)
    return total


def _first_swept(threshold: float) -> int:
    return min(n for n in SIZES if n > threshold)


@functools.cache
def _example():
    """The Figure 1 tree: logical root, 3 physical, 5 physical + 4 logical."""
    tree = ArbitraryTree.from_level_counts([0, 3, 5], [1, 0, 4])
    protocol = ArbitraryProtocol(tree)
    return tree, protocol, protocol.bicoterie()


def _example_claims() -> list[Claim]:
    tree, protocol, bc = _example()
    rows = []
    for k, level in enumerate(tree.level_table()):
        walked = [node for node in tree.nodes() if node.level == k]
        rows += [
            Claim(f"T1.m_{k}", "3.1 Table 1", lambda v=level.total: v,
                  lambda w=walked: len(w), 0),
            Claim(f"T1.m_phy_{k}", "3.1 Table 1", lambda v=level.physical: v,
                  lambda k=k: sum(
                      1 for node in tree.physical_nodes() if node.level == k
                  ), 0),
            Claim(f"T1.m_log_{k}", "3.1 Table 1", lambda v=level.logical: v,
                  lambda w=walked: sum(node.is_logical for node in w), 0),
        ]

    def paper_strategy_load(system: SetSystem, weight: float) -> float:
        strategy = Strategy.from_mapping(system, dict.fromkeys(system, weight))
        return max(strategy.element_load(sid) for sid in system.universe)

    def eq_3_2(op: str, p: float) -> float:
        availability = QuorumSystem.availability(protocol, p, op)
        load = _lp(protocol, op)
        if op == "read":
            return availability * (load - 1.0) + 1.0
        return availability * load + (1.0 - availability)

    rows += [
        Claim("3.4.m(R)", "3.2.1 Fact", lambda: protocol.num_read_quorums,
              lambda: len(bc.read_quorums), 0),
        Claim("3.4.m(W)", "3.2.2 Fact", lambda: protocol.num_write_quorums,
              lambda: len(bc.write_quorums), 0),
        Claim("3.4.L_RD.paper-strategy", "3.2.1", lambda: metrics.read_load(tree),
              lambda: paper_strategy_load(
                  bc.as_read_system(), protocol.uniform_read_weight()), 1e-9),
        Claim("3.4.L_WR.paper-strategy", "3.2.2", lambda: metrics.write_load(tree),
              lambda: paper_strategy_load(
                  bc.as_write_system(), protocol.uniform_write_weight()), 1e-9),
        Claim("3.4.L_WR.uniform", "2.5 Def", lambda: metrics.write_load(tree),
              lambda: system_load(bc.write_quorums, universe=bc.universe), 1e-9),
        Claim("3.4.RD_cost", "3.2.1", lambda: metrics.read_cost(tree),
              lambda: Strategy.uniform(bc.as_read_system()).expected_quorum_size(),
              1e-9),
        Claim("3.4.WR_cost", "3.2.2", lambda: metrics.write_cost_avg(tree),
              lambda: Strategy.uniform(bc.as_write_system()).expected_quorum_size(),
              1e-9),
    ]
    for p in (0.55, 0.7, 0.9):
        rows += [
            Claim(f"3.4.RD_avail({p})", "3.2.1",
                  lambda p=p: metrics.read_availability(tree, p),
                  lambda p=p: QuorumSystem.availability(protocol, p, "read"), 1e-9),
            Claim(f"3.4.WR_avail({p})", "3.2.2",
                  lambda p=p: metrics.write_availability(tree, p),
                  lambda p=p: QuorumSystem.availability(protocol, p, "write"), 1e-9),
        ]
    rows += [
        Claim("3.4.E[L_RD](0.7)", "3.2 Eq. 3.2",
              lambda: metrics.expected_read_load(tree, P),
              lambda: eq_3_2("read", P), 1e-6),
        Claim("3.4.E[L_WR](0.7)", "3.2 Eq. 3.2",
              lambda: metrics.expected_write_load(tree, P),
              lambda: eq_3_2("write", P), 1e-6),
    ]
    return rows


def _load_claims() -> list[Claim]:
    rows = []
    for spec in LP_SPECS:
        tree = from_spec(spec)
        protocol = ArbitraryProtocol(tree)
        rows += [
            Claim(f"A6.L_RD.lp[{spec}]", "6.1", lambda t=tree: metrics.read_load(t),
                  lambda s=protocol: _lp(s, "read"), 1e-6),
            Claim(f"A6.L_RD.cert[{spec}]", "6.1",
                  lambda t=tree: metrics.read_load(t),
                  lambda t=tree: _certified(prove_read_load(t)), 1e-9),
            Claim(f"A6.L_WR.lp[{spec}]", "6.2",
                  lambda t=tree: metrics.write_load(t),
                  lambda s=protocol: _lp(s, "write"), 1e-6),
            Claim(f"A6.L_WR.cert[{spec}]", "6.2",
                  lambda t=tree: metrics.write_load(t),
                  lambda t=tree: _certified(prove_write_load(t)), 1e-9),
        ]
    for n in BINARY_SIZES:
        tree = unmodified_binary(n)
        rows.append(Claim(
            f"3.3.L_WR.unmodified.cert[{n}]", "3.3 lower bound",
            lambda t=tree: metrics.write_load(t),
            lambda n=n: prove_lower_bound_for_binary_tree(n)[0], 1e-9,
        ))
        if n <= 63:
            rows.append(Claim(
                f"3.3.L_WR.unmodified.lp[{n}]", "3.3 lower bound",
                lambda t=tree: metrics.write_load(t),
                lambda t=tree: _lp(ArbitraryProtocol(t), "write"), 1e-6,
            ))
        if n <= 15:
            tq = TreeQuorumProtocol(n)
            rows.append(Claim(
                f"3.3.naor-wool.lp[{n}]", "4.2.2 [10]", tq.optimal_load,
                lambda tq=tq: _lp(tq, "read"), 1e-6,
            ))
    for n in (7, 31, 127, 511):
        tree = unmodified_binary(n)
        rows.append(Claim(
            f"3.3.WR_cost.unmodified[{n}]", "3.3",
            lambda t=tree: metrics.write_cost_avg(t),
            lambda t=tree: Strategy.uniform(SetSystem(
                ArbitraryProtocol(t).write_quorums())).expected_quorum_size(),
            1e-9,
        ))
    for n in (100, 400, 10_000):
        tree = algorithm_1(n)
        rows += [
            Claim(f"3.3.L_WR.alg1.cert[{n}]", "3.3 Algorithm 1",
                  lambda t=tree: metrics.write_load(t),
                  lambda t=tree: _certified(prove_write_load(t)), 1e-9),
            Claim(f"3.3.WR_cost.alg1[{n}]", "3.3 Algorithm 1",
                  lambda t=tree: metrics.write_cost_avg(t),
                  lambda t=tree: Strategy.uniform(SetSystem(
                      ArbitraryProtocol(t).write_quorums())).expected_quorum_size(),
                  1e-9),
        ]
    rows.append(Claim(
        "3.2.3.bicoterie", "3.2.3 Def. 2.3",
        lambda: sum(ArbitraryProtocol(t).num_read_quorums for t in BICOTERIE_TREES),
        lambda: sum(
            len(ArbitraryProtocol(t).bicoterie(250_000).read_quorums)
            for t in BICOTERIE_TREES
        ), 0,
    ))
    return rows


def _related_work_claims() -> list[Claim]:
    rows = []
    for n in (7, 13):
        fpp = FiniteProjectivePlaneProtocol(n)
        lines = Coterie(fpp.read_quorums(), universe=fpp.universe)
        rows += [
            Claim(f"1.FPP.cost[{n}]", "1 [9]", fpp.read_cost,
                  lambda c=lines: c.smallest_quorum_size()
                  if c.smallest_quorum_size() == c.largest_quorum_size()
                  else math.nan, 0),
            Claim(f"1.FPP.load.uniform[{n}]", "1 [9]", fpp.read_load,
                  lambda c=lines: max(c.element_frequencies().values()) / len(c),
                  1e-12),
            Claim(f"1.FPP.load.lp[{n}]", "1 [9]", fpp.write_load,
                  lambda f=fpp: _lp(f, "write"), 1e-6),
            Claim(f"1.FPP.RD_avail[{n}]", "1 [9]", lambda f=fpp: f.read_availability(P),
                  lambda f=fpp, n=n: _enumerated_availability(
                      f.write_quorums(), n, P), 1e-9),
            Claim(f"1.FPP.WR_avail[{n}]", "1 [9]",
                  lambda f=fpp: f.write_availability(P),
                  lambda f=fpp, n=n: _enumerated_availability(
                      f.read_quorums(), n, P), 1e-9),
        ]
    majority, rowa = MajorityProtocol(5), RowaProtocol(5)
    rng = random.Random(0)
    rows += [
        Claim("1.Majority.RD_cost", "1 [13]", majority.read_cost,
              lambda: len(majority.sample_read_quorum(rng)), 0),
        Claim("1.Majority.WR_cost", "1 [13]", majority.write_cost,
              lambda: len(majority.sample_write_quorum(rng)), 0),
        Claim("1.Majority.load.lp", "1 [13]", majority.read_load,
              lambda: _lp(majority, "read"), 1e-6),
        Claim("1.ROWA.RD_cost", "1 [3]", rowa.read_cost,
              lambda: len(rowa.sample_read_quorum(rng)), 0),
        Claim("1.ROWA.WR_cost", "1 [3]", rowa.write_cost,
              lambda: len(rowa.sample_write_quorum(rng)), 0),
        Claim("1.ROWA.L_RD.lp", "1 [3]", rowa.read_load,
              lambda: _lp(rowa, "read"), 1e-6),
    ]
    for p in (0.4, 0.7):
        three = MajorityProtocol(3)
        rows.append(Claim(
            f"2.majority-of-3.avail({p})", "2 p > 1/2 (Peleg-Wool)",
            lambda p=p: three.read_availability(p),
            lambda p=p: _enumerated_availability(three.read_quorums(), 3, p),
            1e-12,
        ))
    ae = AgrawalTreeProtocol(d=1, height=1)  # 4 nodes: root + 3 children
    tq = TreeQuorumProtocol(15)
    paths = [q for q in tq.enumerate_quorums() if len(q) == 4]  # root to leaf
    rows += [
        Claim("1.AE.RD_cost", "1 [1]", ae.read_cost,
              lambda: min(len(q) for q in ae.read_quorums()), 0),
        Claim("1.AE.WR_cost", "1 [1]", ae.write_cost,
              lambda: max(len(q) for q in ae.write_quorums())
              if {len(q) for q in ae.write_quorums()} == {ae.write_cost()}
              else math.nan, 0),
        Claim("1.AE.L_WR.lp(root)", "1 [1]", ae.write_load,
              lambda: QuorumSystem.load_vector(ae, "write")[0], 1e-6),
        Claim("4.BINARY.path-strategy-load", "4 [10]", tq.path_strategy_load,
              lambda: Strategy.from_mapping(
                  SetSystem(paths), dict.fromkeys(paths, 1.0 / len(paths))
              ).element_load(0), 1e-9),
    ]
    return rows


def _scan_claims() -> list[Claim]:
    hqc, binary, arbitrary = (
        Configuration.HQC, Configuration.BINARY, Configuration.ARBITRARY
    )
    # n^(log3(2)-1) drops below ARBITRARY's 1/4 past this n
    hqc_beats_quarter = 4 ** (1 / (1 - math.log(2, 3)))
    rows = [
        Claim(f"4.2.1.HQC<BINARY.{quantity}", "4.2.1 n > 15",
              lambda: _first_swept(15),
              lambda q=quantity: quantity_crossover_n(hqc, binary, q, SIZES), 0)
        for quantity in ("read_load", "expected_read_load")
    ]
    rows += [
        Claim("4.2.1.HQC<ARBITRARY.read_load", "4.2.1",
              lambda: _first_swept(hqc_beats_quarter),
              lambda: quantity_crossover_n(hqc, arbitrary, "read_load", SIZES), 0),
        Claim("4.2.2.ARBITRARY-least-write-load", "4.2.2 figures from n = 31",
              lambda: 31,
              lambda: max(
                  quantity_crossover_n(arbitrary, loser, "write_load", SIZES)
                  for loser in FIRST_FOUR if loser is not arbitrary
              ), 0),
        Claim("4.2.2.HQC-expected-write-below-p[511]", "4.2.2 p < 0.8",
              lambda: 0.8, lambda: expected_write_crossover_p(511), 0.05),
    ]
    rows += [
        Claim(f"3.2.3.alg1-stable-from-p[{n}]", "3.3 p > 0.8", lambda: 0.8,
              lambda n=n: stability_report(algorithm_1(n)).stable_from(0.05), 0)
        for n in (243, 1024)
    ]
    return rows


CLAIMS = _example_claims() + _load_claims() + _related_work_claims() + _scan_claims()


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim(claim):
    closed, check, holds = evaluate(claim)
    assert holds, f"{claim.id}: closed form {closed} vs check {check}"


def test_claims_file(emit):
    rows = []
    for claim in CLAIMS:
        closed, check, holds = evaluate(claim)
        rows.append([claim.id, claim.section, round(closed, 9), round(check, 9),
                     claim.tol, "holds" if holds else "FAILS"])
    emit("paper_claims", format_table(
        ["claim", "PAPER.md section", "closed form", "check", "tolerance",
         "verdict"],
        rows, title="The paper's claims: closed form vs independent check",
    ))
    assert all(row[-1] == "holds" for row in rows)


# ----------------------------------------------------------------------
# Figures 2-4 (Section 4): the six configurations over n
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def figures():
    return figure2_series(sizes=SIZES), figure3_series(sizes=SIZES), (
        figure4_series(sizes=SIZES)
    )


def _values(series, config, quantity, field="value"):
    return {
        point.requested_n: getattr(point, field)
        for point in series.series[config][quantity]
    }


def test_figure_tables(figures, emit):
    fig2, fig3, fig4 = figures
    for name, series, quantity, title in (
        ("fig2_read_costs", fig2, "read_cost",
         "Figure 2 (reads): communication cost"),
        ("fig2_write_costs", fig2, "write_cost",
         "Figure 2 (writes): communication cost"),
        ("fig3_read_loads", fig3, "read_load", "Figure 3: read system load"),
        ("fig3_expected_read_loads", fig3, "expected_read_load",
         "Figure 3: expected read system load (p = 0.7)"),
        ("fig4_write_loads", fig4, "write_load", "Figure 4: write system load"),
        ("fig4_expected_write_loads", fig4, "expected_write_load",
         "Figure 4: expected write system load (p = 0.7)"),
    ):
        emit(name, format_series(series, quantity, title=title))


def test_figure2_costs(figures):
    """§4.1: MOSTLY-READ reads 1 / writes n (the worst), MOSTLY-WRITE reads
    the most and writes ~2, BINARY costs the most of the first four,
    ARBITRARY writes the least of them from n = 31 and costs ~sqrt(n) past
    64, UNMODIFIED reads log2(n+1), the least of them from n = 31."""
    series = figures[0]

    def cost(config, quantity):
        return _values(series, config, quantity)

    for n in SIZES:
        reads = {c: cost(c, "read_cost")[n] for c in Configuration}
        writes = {c: cost(c, "write_cost")[n] for c in Configuration}
        assert reads[Configuration.MOSTLY_READ] == 1.0
        assert writes[Configuration.MOSTLY_READ] == float(n)
        assert writes[Configuration.MOSTLY_READ] == max(writes.values())
        assert reads[Configuration.MOSTLY_WRITE] == max(reads.values())
        assert writes[Configuration.MOSTLY_WRITE] == pytest.approx(2.0, abs=0.2)
        snapped = min(
            (2 ** (h + 1) - 1 for h in range(1, 12)),
            key=lambda candidate: abs(candidate - n),
        )
        assert reads[Configuration.UNMODIFIED] == pytest.approx(
            math.log2(snapped + 1)
        )
        for config in FIRST_FOUR:
            assert reads[Configuration.BINARY] >= reads[config] - 1e-9
            assert writes[Configuration.BINARY] >= writes[config] - 1e-9
            if n >= 31:  # below it the fallback tree has few levels
                assert writes[Configuration.ARBITRARY] <= writes[config] + 1e-9
                assert reads[Configuration.UNMODIFIED] <= reads[config] + 1e-9
        if n > 64:
            assert reads[Configuration.ARBITRARY] == pytest.approx(
                math.sqrt(n), rel=0.2
            )
            assert writes[Configuration.ARBITRARY] == pytest.approx(
                math.sqrt(n), rel=0.2
            )


def test_figure3_read_loads(figures):
    """§4.2.1: MOSTLY-READ 1/n, the least and stable; MOSTLY-WRITE 1/2 and
    unstable; UNMODIFIED 1, the worst; HQC n^-0.37, the least of the first
    four for n > 15 (than ARBITRARY from 63); ARBITRARY settles at 1/4;
    BINARY 2/(log2(n+1)+1)."""
    series = figures[1]
    load = {c: _values(series, c, "read_load") for c in Configuration}
    expected = {c: _values(series, c, "expected_read_load") for c in Configuration}
    actual = {
        c: _values(series, c, "read_load", "actual_n") for c in Configuration
    }
    previous_load, previous_expected = 1.0, 0.0
    for n in SIZES:
        mostly_read_load = load[Configuration.MOSTLY_READ][n]
        assert mostly_read_load == pytest.approx(1.0 / n)
        assert mostly_read_load <= min(load[c][n] for c in Configuration) + 1e-12
        assert expected[Configuration.MOSTLY_READ][n] - mostly_read_load < 1e-6
        assert mostly_read_load < previous_load
        previous_load = mostly_read_load
        assert load[Configuration.MOSTLY_WRITE][n] == pytest.approx(0.5)
        mostly_write_expected = expected[Configuration.MOSTLY_WRITE][n]
        assert mostly_write_expected >= previous_expected - 1e-9
        previous_expected = mostly_write_expected
        if n >= 63:
            assert mostly_write_expected > 0.9
        assert load[Configuration.UNMODIFIED][n] == pytest.approx(1.0)
        assert expected[Configuration.UNMODIFIED][n] == pytest.approx(1.0)
        assert load[Configuration.UNMODIFIED][n] >= max(
            load[c][n] for c in Configuration
        ) - 1e-12
        hqc_n = actual[Configuration.HQC][n]
        assert load[Configuration.HQC][n] == pytest.approx(
            hqc_n ** (math.log(2, 3) - 1), rel=1e-9
        )
        competitors = (
            FIRST_FOUR if n >= 63
            else (Configuration.BINARY, Configuration.UNMODIFIED)
        )
        if n > 15:
            for config in competitors:
                assert load[Configuration.HQC][n] <= load[config][n] + 1e-9
                assert expected[Configuration.HQC][n] <= expected[config][n] + 1e-9
        if n > 32:
            assert load[Configuration.ARBITRARY][n] == pytest.approx(0.25)
        assert load[Configuration.BINARY][n] == pytest.approx(
            2.0 / (math.log2(actual[Configuration.BINARY][n] + 1) + 1)
        )


def test_figure4_write_loads(figures):
    """§4.2.2: MOSTLY-READ 1, the most; MOSTLY-WRITE 2/(n-1), the least and
    stable; BINARY the most of the first four; ARBITRARY the least of them
    (1/sqrt(n) past 64); UNMODIFIED 1/log2(n+1), between ARBITRARY and
    BINARY; HQC's expected load beats ARBITRARY's at n = 511, p = 0.7."""
    series = figures[2]
    load = {c: _values(series, c, "write_load") for c in Configuration}
    expected = {
        c: _values(series, c, "expected_write_load") for c in Configuration
    }
    actual = {
        c: _values(series, c, "write_load", "actual_n") for c in Configuration
    }
    previous = 1.0
    for n in SIZES:
        assert load[Configuration.MOSTLY_READ][n] == pytest.approx(1.0)
        assert expected[Configuration.MOSTLY_READ][n] == pytest.approx(1.0)
        assert load[Configuration.MOSTLY_READ][n] >= max(
            load[c][n] for c in Configuration
        ) - 1e-12
        least = load[Configuration.MOSTLY_WRITE][n]
        assert least == pytest.approx(2.0 / (n - 1), rel=0.05)
        assert least <= min(load[c][n] for c in Configuration) + 1e-12
        assert expected[Configuration.MOSTLY_WRITE][n] - least < 0.15
        assert least < previous
        previous = least
        binary = load[Configuration.BINARY][n]
        assert binary == pytest.approx(
            2.0 / (math.log2(actual[Configuration.BINARY][n] + 1) + 1)
        )
        unmodified = load[Configuration.UNMODIFIED][n]
        assert unmodified == pytest.approx(
            1.0 / math.log2(actual[Configuration.UNMODIFIED][n] + 1)
        )
        if n >= 31:  # HQC snaps to n = 9 below, the fallback tree is shallow
            arbitrary = load[Configuration.ARBITRARY][n]
            for config in FIRST_FOUR:
                assert binary >= load[config][n] - 1e-9
                assert (
                    expected[Configuration.BINARY][n]
                    >= expected[config][n] - 5e-3
                )
                assert arbitrary <= load[config][n] + 1e-9
            assert arbitrary - 1e-9 <= unmodified <= binary + 1e-9
        if n > 64:
            assert load[Configuration.ARBITRARY][n] == pytest.approx(
                1.0 / math.isqrt(n), rel=1e-9
            )
    n = SIZES[-1]
    assert expected[Configuration.HQC][n] < expected[Configuration.ARBITRARY][n]


# ----------------------------------------------------------------------
# Table 1 and the Section 3.4 example (the 1-3-5 tree)
# ----------------------------------------------------------------------


def test_table1_and_example(emit):
    tree, protocol, _bc = _example()
    emit("table1_levels", format_table(
        ["level k", "m_k", "m_phy_k", "m_log_k"],
        [[row.level, row.total, row.physical, row.logical]
         for row in tree.level_table()],
        title="Table 1: node counts per level of the 1-3-5 tree",
    ))
    assert [(r.total, r.physical, r.logical) for r in tree.level_table()] == [
        (1, 0, 1), (3, 3, 0), (9, 5, 4),
    ]
    assert tree.n == 8 and tree.height == 2
    assert tree.physical_levels == (1, 2) and tree.logical_levels == (0,)
    assert tree.spec() == "1-3-5" and from_spec("1-3-5").n == 8
    assert tree.node(1, 0) is tree.root and tree.root.is_logical
    assert [len(tree.physical_nodes_at(k)) for k in range(len(tree.levels))] == [
        0, 3, 5,
    ]
    assert (protocol.num_read_quorums, protocol.num_write_quorums) == (15, 2)
    m = analyse(tree, P)
    emit("table1_metrics", format_table(
        ["quantity", "measured", "paper"],
        [
            ["RD_cost", m.read_cost, 2],
            ["RD_availability(0.7)", round(m.read_availability, 4), 0.97],
            ["L_RD", round(m.read_load, 4), "1/3"],
            ["WR_cost (avg)", m.write_cost_avg, 4],
            ["WR_availability(0.7)", round(m.write_availability, 4), 0.45],
            ["L_WR", round(m.write_load, 4), "1/2"],
            ["E[L_RD]", round(m.expected_read_load, 4), 0.35],
            ["E[L_WR]", round(m.expected_write_load, 4), 0.775],
        ],
        title="Section 3.4 example quantities (1-3-5 tree, p = 0.7)",
    ))
    assert m.read_cost == 2 and m.write_cost_avg == pytest.approx(4.0)
    assert m.read_load == pytest.approx(1 / 3)
    assert m.write_load == pytest.approx(0.5)
    for measured, paper in (
        (m.read_availability, 0.97), (m.write_availability, 0.45),
        (m.expected_read_load, 0.35), (m.expected_write_load, 0.775),
    ):
        assert measured == pytest.approx(paper, abs=0.005)


# ----------------------------------------------------------------------
# Section 3.2.3 and Appendix 6: intersection and load optimality
# ----------------------------------------------------------------------


def test_bicoterie(emit):
    """Def. 2.1-2.3 and §3.2.3: every read quorum hits every level once,
    the write quorums partition the replicas, neither collection is itself
    a quorum system, while Majority's both are; the zoo is all bi-coteries."""
    total = sum(
        len(ArbitraryProtocol(t).bicoterie(250_000).read_quorums)
        for t in BICOTERIE_TREES
    )
    emit(
        "intersection",
        f"bi-coterie property verified on {len(BICOTERIE_TREES)} trees, "
        f"{total} read quorums enumerated per round",
    )
    assert all(tree.satisfies_assumption() for tree in BICOTERIE_TREES)
    tree, protocol, bc = _example()
    for read in bc.read_quorums:
        for k in tree.physical_levels:
            assert len(read & set(tree.replica_ids_at(k))) == 1
    assert not bc.reads_intersect() and not bc.writes_intersect()
    forty = recommended_tree(40)
    writes = ArbitraryProtocol(forty).write_quorums()
    assert frozenset().union(*writes) == frozenset(range(forty.n))
    assert sum(len(w) for w in writes) == forty.n  # pairwise disjoint
    majority = MajorityProtocol(5).bicoterie()
    assert majority.reads_intersect() and majority.writes_intersect()
    for name in ("rowa", "majority", "grid", "hqc", "tree-quorum", "ae-tree"):
        assert quorum_system(name, 9).is_bicoterie(), name


def test_load_optimality(emit):
    rows = []
    for spec in LP_SPECS:
        tree = from_spec(spec)
        protocol = ArbitraryProtocol(tree)
        read_lp = optimal_load(
            list(protocol.read_quorums()), universe=protocol.universe
        )
        write_lp = optimal_load(protocol.write_quorums(), universe=protocol.universe)
        assert read_lp.verify() and write_lp.verify(), spec
        assert protocol.is_bicoterie()
        rows.append([
            spec,
            round(metrics.read_load(tree), 5), round(read_lp.load, 5),
            round(metrics.write_load(tree), 5), round(write_lp.load, 5),
        ])
    emit("load_optimality", format_table(
        ["tree", "1/d", "LP read load", "1/|K_phy|", "LP write load"],
        rows, title="Appendix 6: closed-form loads vs LP optimum",
    ))


# ----------------------------------------------------------------------
# Section 3.3: the new lower bound and Algorithm 1
# ----------------------------------------------------------------------


def test_lower_bound(emit):
    """UNMODIFIED writes load 1/log2(n+1), strictly below Naor-Wool's
    2/(log2(n+1)+1); they stay more available than p and cost
    n/log2(n+1) on average."""
    rows = []
    for n in BINARY_SIZES:
        ours, naor_wool, strictly_lower = prove_lower_bound_for_binary_tree(n)
        assert strictly_lower
        assert ours == pytest.approx(1.0 / math.log2(n + 1))
        assert naor_wool == pytest.approx(2.0 / (math.log2(n + 1) + 1))
        ours = metrics.write_load(unmodified_binary(n))
        naor_wool = TreeQuorumProtocol(n).optimal_load()
        rows.append([n, round(ours, 5), round(naor_wool, 5),
                     round(naor_wool - ours, 5)])
    emit("lower_bound", format_table(
        ["n", "UNMODIFIED write load 1/log2(n+1)",
         "Naor-Wool bound 2/(log2(n+1)+1)", "gap"],
        rows, title="New lower bound for the binary tree structure of [2]",
    ))
    rows = []
    for n in (7, 31, 127, 511):
        tree = unmodified_binary(n)
        for p in (0.55, 0.7, 0.9):
            assert metrics.write_availability(tree, p) > p
        rows.append([n, round(metrics.write_cost_avg(tree), 3),
                     round(n / math.log2(n + 1), 3)])
        assert rows[-1][1] == pytest.approx(rows[-1][2])
    emit("unmodified_write_costs", format_table(
        ["n", "avg write cost", "n/log2(n+1)"],
        rows, title="UNMODIFIED write cost matches n/log2(n+1)",
    ))


def test_algorithm1(emit):
    """Write load 1/floor(sqrt n), read load 1/4, costs ~sqrt(n), write
    cost 4 .. ~(n-28)/(sqrt(n)-7), availabilities at their limits by
    n = 10^4, and both limits ~1 for p > 0.8."""
    rows = []
    for n in ALGORITHM1_SIZES:
        m = analyse(algorithm_1(n), p=0.7)
        rows.append([
            n, m.num_physical_levels, m.read_cost, round(m.write_cost_avg, 2),
            round(m.read_load, 4), round(m.write_load, 4),
            round(m.read_availability, 4), round(m.write_availability, 4),
        ])
        assert m.write_load == pytest.approx(1.0 / math.isqrt(n))
        assert m.read_load == pytest.approx(0.25)
        assert m.read_cost == math.isqrt(n)
        assert m.write_cost_avg == pytest.approx(n / math.isqrt(n))
        assert m.write_cost_min == 4
        assert m.write_cost_max == pytest.approx(
            math.ceil((n - 28) / (math.isqrt(n) - 7)), abs=1
        )
    emit("algorithm1_sweep", format_table(
        ["n", "|K_phy|", "RD_cost", "WR_cost", "L_RD", "L_WR",
         "RD_avail", "WR_avail"],
        rows, title="Algorithm 1 trees at p = 0.7",
    ))
    rows = []
    for p in (0.55, 0.65, 0.7, 0.8, 0.9, 0.95):
        m = analyse(algorithm_1(10_000), p=p)
        lim_rd, lim_wr = limit_read_availability(p), limit_write_availability(p)
        rows.append([p, round(m.read_availability, 4), round(lim_rd, 4),
                     round(m.write_availability, 4), round(lim_wr, 4)])
        assert m.read_availability == pytest.approx(lim_rd, abs=0.02)
        assert m.write_availability == pytest.approx(lim_wr, abs=0.02)
    emit("algorithm1_limits", format_table(
        ["p", "RD_avail(n=10^4)", "lim RD_avail",
         "WR_avail(n=10^4)", "lim WR_avail"],
        rows, title="Section 3.3 asymptotic availabilities of Algorithm 1",
    ))
    for p in (0.85, 0.9, 0.95):
        assert limit_read_availability(p) > 0.98
        assert limit_write_availability(p) > 0.98


# ----------------------------------------------------------------------
# availability over p (Sections 3.3 / 4)
# ----------------------------------------------------------------------

AVAILABILITY_P = (0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
AVAILABILITY_N = 243


def test_availability(emit):
    """Monotone in p; MOSTLY-READ reads ~1 and writes below p, UNMODIFIED
    the reverse; HQC writes beat ARBITRARY's for p <= 0.7; ARBITRARY is
    above 0.97 both ways, and Eq. 3.2-stable, for p >= 0.85."""
    points = {p: evaluate_all(AVAILABILITY_N, p) for p in AVAILABILITY_P}
    for quantity in ("read_availability", "write_availability"):
        emit(
            f"availability_{quantity.split('_')[0]}",
            format_table(
                ["p", *[str(c) for c in Configuration]],
                [[p, *[round(getattr(points[p][c], quantity), 4)
                       for c in Configuration]] for p in AVAILABILITY_P],
                title=f"{quantity} at n ~ {AVAILABILITY_N}",
            ),
        )
        for config in Configuration:
            values = [getattr(points[p][config], quantity) for p in AVAILABILITY_P]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    for p, at_p in points.items():
        assert at_p[Configuration.MOSTLY_READ].read_availability > 0.999999
        assert at_p[Configuration.MOSTLY_READ].write_availability < p
        assert at_p[Configuration.UNMODIFIED].write_availability > p
        assert at_p[Configuration.UNMODIFIED].read_availability < p
        arbitrary = at_p[Configuration.ARBITRARY]
        if p <= 0.7:
            assert (
                at_p[Configuration.HQC].write_availability
                > arbitrary.write_availability
            )
        if p >= 0.85:
            assert arbitrary.read_availability > 0.97
            assert arbitrary.write_availability > 0.97
            assert metrics.is_stable(algorithm_1(AVAILABILITY_N), p) == (True, True)
    # Peleg-Wool: below p = 1/2 one site beats a majority of three
    three = MajorityProtocol(3)
    assert three.read_availability(0.4) < 0.4
    assert three.read_availability(0.6) > 0.6


# ----------------------------------------------------------------------
# Section 1: the related-work survey
# ----------------------------------------------------------------------


def test_related_work(emit):
    n = 121
    entries = {entry.protocol: entry for entry in survey(n)}
    emit("related_work", format_table(
        ["protocol", "ref", "n", "rd min", "rd max", "wr cost",
         "rd load", "wr load"],
        [[e.protocol, e.reference, e.n, e.read_cost_best, e.read_cost_worst,
          round(e.write_cost, 2), round(e.read_load, 4), round(e.write_load, 4)]
         for e in entries.values()],
        title=f"Section 1 survey at n ~ {n}",
    ))
    rowa = entries["ROWA"]
    assert (rowa.read_cost_best, rowa.write_cost, rowa.write_load) == (1, n, 1.0)
    assert rowa.read_load == pytest.approx(1 / n)
    majority = entries["Majority"]
    assert majority.read_cost_best == (majority.n + 1) / 2
    assert majority.write_load >= 0.5
    for name in ("FPP (sqrt n)", "Grid"):
        entry = entries[name]
        assert entry.read_cost_best == pytest.approx(math.sqrt(entry.n), rel=0.35)
        assert entry.read_load == pytest.approx(1 / math.sqrt(entry.n), rel=0.35)
        assert entry.write_load >= 1 / math.sqrt(entry.n) - 1e-9
    tq = entries["Tree quorum"]
    assert tq.read_cost_best == pytest.approx(math.log2(tq.n + 1))
    assert tq.read_cost_worst == (tq.n + 1) / 2
    hqc = entries["HQC"]
    assert hqc.read_cost_best == pytest.approx(hqc.n ** math.log(2, 3), rel=1e-6)
    assert hqc.read_load == pytest.approx(hqc.n ** (math.log(2, 3) - 1), rel=1e-6)
    ae = entries["AE tree (VLDB90)"]
    assert (ae.read_cost_best, ae.read_load, ae.write_load) == (1, 1.0, 1.0)
    koch, choi = entries["Koch"], entries["Choi symmetric"]
    assert koch.read_cost_best == choi.read_cost_best == 1
    assert choi.read_cost_worst == pytest.approx(math.sqrt(koch.read_cost_worst))
    assert (koch.read_load, choi.read_load) == (1.0, 0.5)
    ours = entries["Arbitrary (this paper)"]
    assert ours.write_load == pytest.approx(1 / math.isqrt(n))
    assert ours.write_load == pytest.approx(1 / math.sqrt(ours.n), rel=0.1)
    for name in ("ROWA", "Majority", "Tree quorum", "HQC", "AE tree (VLDB90)",
                 "Koch", "Choi symmetric"):
        assert ours.write_load <= entries[name].write_load + 1e-9
    protocol = AgrawalTreeProtocol(d=1, height=1)
    assert protocol.is_bicoterie()
    assert all(
        len(w) == protocol.write_cost_exact() for w in protocol.write_quorums()
    )


# ----------------------------------------------------------------------
# ablations (ours): the tree shape is the tuning knob
# ----------------------------------------------------------------------


def _head_tree(n: int, head_size: int, head_length: int = 7):
    """An Algorithm-1-style tree with a configurable head."""
    levels = max(head_length + 1, int(n**0.5))
    head = [head_size] * head_length
    tail_total = n - head_size * head_length
    tail = _spread(tail_total, levels - head_length, minimum=head_size)
    return from_physical_level_sizes(head + tail)


def test_ablation_head(emit):
    """Algorithm 1's four-replica, seven-level head: a bigger head s helps
    reads (load 1/s, with diminishing returns) and hurts writes; s = 4 is
    stable at p = 0.85 and no neighbour beats it on every axis; s = 2 reads
    poorly; a longer head trades read for write availability."""
    n, sizes, p_values = 400, (2, 3, 4, 5, 6, 8), (0.7, 0.8, 0.85, 0.9)
    sweep = {
        (s, p): analyse(_head_tree(n, s), p=p) for s in sizes for p in p_values
    }
    emit("ablation_head_size", format_table(
        ["head size s", "read load 1/s", "min write cost", "RD avail", "WR avail"],
        [[s, round(m.read_load, 4), m.write_cost_min,
          round(m.read_availability, 4), round(m.write_availability, 4)]
         for s in sizes for m in [sweep[(s, 0.85)]]],
        title=f"Head-size ablation at n={n}, p=0.85 (paper uses s=4)",
    ))
    for p in p_values:
        for a, b in zip(sizes, sizes[1:]):
            assert (
                sweep[(b, p)].read_availability
                >= sweep[(a, p)].read_availability - 1e-12
            )
            assert (
                sweep[(b, p)].write_availability
                <= sweep[(a, p)].write_availability + 1e-12
            )
    loads = [sweep[(s, 0.85)].read_load for s in sizes]
    gains = [
        (loads[i] - loads[i + 1]) / (sizes[i + 1] - sizes[i])
        for i in range(len(loads) - 1)
    ]
    assert gains == sorted(gains, reverse=True)
    four, three, five = (sweep[(s, 0.85)] for s in (4, 3, 5))
    assert four.read_availability > 0.97 and four.write_availability > 0.97
    assert four.read_load == pytest.approx(0.25)
    assert three.read_load > four.read_load
    assert three.read_availability < four.read_availability
    assert five.write_availability < four.write_availability
    assert sweep[(2, 0.8)].read_load == pytest.approx(0.5)
    assert (
        sweep[(2, 0.8)].read_availability
        < sweep[(4, 0.8)].read_availability - 0.1
    )
    rows = []
    for length in (3, 5, 7, 10):
        tree = _head_tree(n, 4, head_length=length)
        rows.append([length, round(metrics.read_availability(tree, 0.8), 4),
                     round(metrics.write_availability(tree, 0.8), 4)])
    emit("ablation_head_length", format_table(
        ["head length L", "RD avail", "WR avail"],
        rows, title=f"Head-length ablation (s=4, n={n}, p=0.8)",
    ))
    assert [r[1] for r in rows] == sorted((r[1] for r in rows), reverse=True)
    assert [r[2] for r in rows] == sorted(r[2] for r in rows)


def test_ablation_tree_shape(emit):
    """§3.3 at n = 60, p = 0.85: more physical levels lower write cost and
    load and raise write availability, raise read cost and lower read
    availability; read load is 1/d; one level is ROWA, 30 levels of two
    write at cost 2, load 1/30, availability ~1."""
    n, p = 60, 0.85
    sweep = {
        levels: analyse(from_physical_level_sizes(_spread(n, levels)), p=p)
        for levels in (1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30)
    }
    emit("ablation_tree_shape", format_table(
        ["|K_phy|", "tree", "RD cost", "WR cost", "L_RD", "L_WR",
         "RD avail", "WR avail"],
        [[levels, m.spec if len(m.spec) < 30 else m.spec[:27] + "...",
          m.read_cost, round(m.write_cost_avg, 2),
          round(m.read_load, 4), round(m.write_load, 4),
          round(m.read_availability, 4), round(m.write_availability, 4)]
         for levels, m in sweep.items()],
        title=f"Tree-shape ablation (n={n}, p={p})",
    ))
    shapes = list(sweep.values())
    for a, b in zip(shapes, shapes[1:]):
        assert b.write_cost_avg <= a.write_cost_avg + 1e-9
        assert b.write_load <= a.write_load + 1e-9
        assert b.read_cost >= a.read_cost
        assert b.read_availability <= a.read_availability + 1e-9
    for m in shapes:
        assert m.read_load == pytest.approx(1.0 / m.d)
    rowa_like, deep = sweep[1], sweep[30]
    assert (rowa_like.read_cost, rowa_like.write_cost_avg) == (1, n)
    assert rowa_like.write_load == 1.0
    assert rowa_like.write_availability == min(m.write_availability for m in shapes)
    assert deep.write_cost_avg == pytest.approx(2.0)
    assert deep.write_load == pytest.approx(1 / 30)
    assert deep.read_load == pytest.approx(0.5)
    assert deep.write_availability > 0.999


def test_tuning_spectrum(emit):
    """The conclusion's spectrum: as the read fraction grows the advisor's
    tree walks from MOSTLY-WRITE-like to one wide level, and its score is
    never worse than either fixed extreme."""
    n, p = 40, 0.9
    fractions = (0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0)
    spectrum = {f: recommend(n, p=p, read_fraction=f) for f in fractions}
    rows = []
    for fraction, result in spectrum.items():
        summary = analyse(result.tree, p=p)
        rows.append([
            fraction, result.tree.spec()[:34], result.tree.num_physical_levels,
            round(result.best.score, 4),
            round(summary.expected_read_load, 4),
            round(summary.expected_write_load, 4),
        ])
    emit("tuning_spectrum", format_table(
        ["read frac", "chosen tree", "|K_phy|", "score", "E[L_RD]", "E[L_WR]"],
        rows, title=f"Tuning spectrum (n={n}, p={p})",
    ))
    levels = [spectrum[f].tree.num_physical_levels for f in fractions]
    assert levels == sorted(levels, reverse=True)
    assert spectrum[1.0].tree.num_physical_levels == 1
    assert spectrum[0.0].tree.d <= 2
    for fraction, result in spectrum.items():
        assert 0.0 < result.best.score <= 1.0
        for fixed in (mostly_read(n), mostly_write(n)):
            fixed_score = (
                fraction * metrics.expected_read_load(fixed, p)
                + (1 - fraction) * metrics.expected_write_load(fixed, p)
            )
            assert result.best.score <= fixed_score + 1e-9
