"""Micro-benchmarks of the protocol's hot paths.

Not a paper figure — these time the operations a deployment performs per
request (quorum selection, failure fallback, metric evaluation) so that
regressions in the core library are caught.
"""

from __future__ import annotations

import random

from repro.core import algorithm_1, analyse, recommended_tree
from repro.core.protocol import ArbitraryProtocol
from repro.core.tuning import recommend
from repro.protocols.hqc import HQCProtocol
from repro.protocols.tree_quorum import TreeQuorumProtocol
from repro.protocols.zoo import quorum_systems


def test_select_read_quorum_speed(benchmark):
    protocol = ArbitraryProtocol(algorithm_1(1024))
    rng = random.Random(0)
    quorum = benchmark(protocol.select_read_quorum, lambda sid: True, rng)
    assert quorum is not None and len(quorum) == 32


def test_select_write_quorum_speed(benchmark):
    protocol = ArbitraryProtocol(algorithm_1(1024))
    rng = random.Random(0)
    quorum = benchmark(protocol.select_write_quorum, lambda sid: True, rng)
    assert quorum is not None


def test_select_read_quorum_under_failures(benchmark):
    protocol = ArbitraryProtocol(algorithm_1(1024))
    rng = random.Random(0)
    dead = set(rng.sample(range(1024), 100))
    live = lambda sid: sid not in dead  # noqa: E731
    quorum = benchmark(protocol.select_read_quorum, live, random.Random(1))
    assert quorum is None or not (quorum & dead)


def test_tree_construction_speed(benchmark):
    tree = benchmark(algorithm_1, 10_000)
    assert tree.n == 10_000


def test_analyse_speed(benchmark):
    tree = recommended_tree(4096)
    metrics = benchmark(analyse, tree, 0.9)
    assert metrics.n == 4096


def test_tuning_advisor_speed(benchmark):
    result = benchmark(recommend, 64, 0.9, 0.8)
    assert result.tree.n == 64


def test_tree_quorum_fallback_speed(benchmark):
    protocol = TreeQuorumProtocol(1023)
    rng = random.Random(0)
    dead = set(rng.sample(range(1023), 100))
    live = lambda sid: sid not in dead  # noqa: E731
    quorum = benchmark(protocol.construct_quorum, live, random.Random(1))
    if quorum is not None:
        assert not (quorum & dead)


def test_hqc_construction_speed(benchmark):
    protocol = HQCProtocol(729)
    quorum = benchmark(protocol.construct_quorum, lambda sid: True)
    assert quorum is not None and len(quorum) == 2**6


def test_zoo_selection_round_speed(benchmark):
    """One failure-aware selection per zoo protocol via the unified API."""
    systems = quorum_systems(31)
    rng = random.Random(0)
    dead = set(rng.sample(range(31), 3))

    def round_trip():
        quorums = {}
        for name, system in systems.items():
            live = lambda sid: sid not in dead  # noqa: E731
            quorums[name] = (
                system.select_read_quorum(live, random.Random(1)),
                system.select_write_quorum(live, random.Random(2)),
            )
        return quorums

    quorums = benchmark(round_trip)
    for name, (read, write) in quorums.items():
        if read is not None:
            assert not (read & dead), name
        if write is not None:
            assert not (write & dead), name
