"""Coordinator RNG isolation: adding a client never perturbs another's.

``build_simulation`` derives the network, workload and coordinator streams
in a fixed order, with coordinators drawing their seeds from a *dedicated*
master stream.  The regression these tests pin: client k's quorum choices
(and the shared workload/network streams) are identical in every run that
has at least k clients — a seed-sharing audit finding, since previously
each added coordinator shifted every later derivation.
"""

import random
from dataclasses import replace

from repro.core import from_spec
from repro.sim import SimulationConfig, WorkloadSpec, simulate
from repro.sim.engine import build_simulation


def _config(clients: int, operations: int = 60) -> SimulationConfig:
    return SimulationConfig(
        tree=from_spec("1-3-5"),
        workload=WorkloadSpec(operations=operations, read_fraction=0.5),
        clients=clients,
        seed=17,
    )


def _coordinator_rng_states(config: SimulationConfig) -> list[tuple]:
    _, workload, _, _, _ = build_simulation(config)
    # A coordinator hands its stream to its quorum chooser, the one
    # consumer of it.
    return [
        coordinator._chooser._rng.getstate()
        for coordinator in workload.coordinators
    ]


def test_client_k_stream_stable_as_clients_grow():
    one = _coordinator_rng_states(_config(clients=1))
    three = _coordinator_rng_states(_config(clients=3))
    five = _coordinator_rng_states(_config(clients=5))
    assert three[0] == one[0]
    assert five[:3] == three
    # Streams are pairwise distinct: clients never share a seed.
    assert len({state for state in five}) == 5


def test_workload_and_network_streams_ignore_client_count():
    for clients in (1, 2, 4):
        _, workload, _, network, _ = build_simulation(_config(clients=clients))
        baseline = build_simulation(_config(clients=1))
        assert workload._rng.getstate() == baseline[1]._rng.getstate()
        assert network._rng.getstate() == baseline[3]._rng.getstate()


def test_multi_client_simulation_is_deterministic():
    first = simulate(_config(clients=3))
    second = simulate(_config(clients=3))
    assert first.monitor.outcomes == second.monitor.outcomes
    assert first.monitor.summary() == second.monitor.summary()
    assert first.duration == second.duration


def test_coordinator_seeds_come_from_dedicated_master():
    """The exact derivation order is part of the determinism contract."""
    config = _config(clients=2)
    rng = random.Random(config.seed)
    rng.getrandbits(64)  # network
    rng.getrandbits(64)  # workload
    coordinator_master = random.Random(rng.getrandbits(64))
    expected = [
        random.Random(coordinator_master.getrandbits(64)).getstate()
        for _ in range(2)
    ]
    assert _coordinator_rng_states(config) == expected


def test_workload_split_across_clients_matches_operation_count():
    config = replace(_config(clients=2), workload=WorkloadSpec(operations=50))
    result = simulate(config)
    assert result.monitor.total_operations == 50
