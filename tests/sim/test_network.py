"""Unit tests for the simulated network."""

import random

import pytest

from repro.sim.events import Scheduler
from repro.sim.messages import ReadRequest
from repro.sim.network import (
    Network,
    PartitionSpec,
    exponential_latency,
    fixed_latency,
    uniform_latency,
)


class Sink:
    """Minimal endpoint for tests."""

    def __init__(self, up: bool = True):
        self.up = up
        self.received = []

    def receive(self, message) -> None:
        self.received.append(message)


@pytest.fixture
def net():
    scheduler = Scheduler()
    network = Network(scheduler, random.Random(0), latency=2.0)
    return scheduler, network


class TestDelivery:
    def test_message_arrives_after_latency(self, net):
        scheduler, network = net
        sink = Sink()
        network.register(1, sink)
        network.register(0, Sink())
        network.send(ReadRequest(src=0, dst=1, key="k"))
        assert sink.received == []
        scheduler.run()
        assert len(sink.received) == 1
        assert scheduler.now == 2.0

    def test_unregistered_destination_raises(self, net):
        _scheduler, network = net
        network.register(0, Sink())
        with pytest.raises(KeyError, match="no endpoint"):
            network.send(ReadRequest(src=0, dst=9, key="k"))

    def test_duplicate_registration_rejected(self, net):
        _scheduler, network = net
        network.register(1, Sink())
        with pytest.raises(ValueError, match="already registered"):
            network.register(1, Sink())

    def test_dead_destination_drops_at_delivery(self, net):
        scheduler, network = net
        sink = Sink()
        network.register(0, Sink())
        network.register(1, sink)
        network.send(ReadRequest(src=0, dst=1, key="k"))
        sink.up = False  # crash while in flight
        scheduler.run()
        assert sink.received == []
        assert network.stats.dropped_dead == 1

    def test_broadcast(self, net):
        scheduler, network = net
        sinks = [Sink() for _ in range(3)]
        for sid, sink in enumerate(sinks):
            network.register(sid, sink)
        network.broadcast(
            ReadRequest(src=0, dst=sid, key="k") for sid in range(3)
        )
        scheduler.run()
        assert all(len(sink.received) == 1 for sink in sinks)

    def test_stats_counters(self, net):
        scheduler, network = net
        network.register(0, Sink())
        network.register(1, Sink())
        network.send(ReadRequest(src=0, dst=1, key="k"))
        scheduler.run()
        assert network.stats.sent == 1
        assert network.stats.delivered == 1
        assert network.stats.dropped == 0


class TestLoss:
    def test_lossy_network_drops_some(self):
        scheduler = Scheduler()
        network = Network(
            scheduler, random.Random(1), latency=1.0, drop_probability=0.5
        )
        sink = Sink()
        network.register(0, Sink())
        network.register(1, sink)
        for _ in range(200):
            network.send(ReadRequest(src=0, dst=1, key="k"))
        scheduler.run()
        assert network.stats.dropped_loss > 50
        assert len(sink.received) == 200 - network.stats.dropped_loss

    @pytest.mark.parametrize("probability", [-0.01, 1.01])
    def test_out_of_range_drop_probability_rejected(self, probability):
        with pytest.raises(ValueError, match="drop probability"):
            Network(Scheduler(), random.Random(0), drop_probability=probability)

    @pytest.mark.parametrize("probability", [-0.01, 1.01])
    def test_out_of_range_duplicate_probability_rejected(self, probability):
        with pytest.raises(ValueError, match="duplicate probability"):
            Network(
                Scheduler(), random.Random(0),
                duplicate_probability=probability,
            )

    @pytest.mark.parametrize("probability", [0.0, 1.0])
    def test_boundary_probabilities_accepted(self, probability):
        # Regression: probabilities are a closed interval; 1.0 used to be
        # rejected even though the docstring presented these as
        # probabilities.
        Network(
            Scheduler(), random.Random(0),
            drop_probability=probability,
            duplicate_probability=probability,
        )

    def test_drop_probability_one_drops_everything(self):
        scheduler = Scheduler()
        network = Network(
            scheduler, random.Random(3), latency=1.0, drop_probability=1.0
        )
        sink = Sink()
        network.register(0, Sink())
        network.register(1, sink)
        for _ in range(50):
            network.send(ReadRequest(src=0, dst=1, key="k"))
        scheduler.run()
        assert sink.received == []
        assert network.stats.dropped_loss == 50

    def test_duplicate_probability_one_duplicates_everything(self):
        scheduler = Scheduler()
        network = Network(
            scheduler, random.Random(3), latency=1.0,
            duplicate_probability=1.0,
        )
        sink = Sink()
        network.register(0, Sink())
        network.register(1, sink)
        for _ in range(50):
            network.send(ReadRequest(src=0, dst=1, key="k"))
        scheduler.run()
        assert network.stats.duplicated == 50
        assert len(sink.received) == 100


class TestPartitions:
    def test_split_construction(self):
        spec = PartitionSpec.split({0, 1}, {2, 3})
        assert spec.connected(0, 1)
        assert not spec.connected(1, 2)

    def test_duplicate_sid_rejected(self):
        with pytest.raises(ValueError, match="two components"):
            PartitionSpec.split({0, 1}, {1, 2})

    def test_unmapped_sids_share_default_group(self):
        spec = PartitionSpec.split({0, 1})
        assert spec.connected(5, 6)
        assert not spec.connected(0, 5)

    def test_partition_blocks_cross_traffic(self, net):
        scheduler, network = net
        a, b = Sink(), Sink()
        network.register(0, a)
        network.register(1, b)
        network.set_partition(PartitionSpec.split({0}, {1}))
        network.send(ReadRequest(src=0, dst=1, key="k"))
        scheduler.run()
        assert b.received == []
        assert network.stats.dropped_partition == 1
        assert network.partitioned
        assert not network.reachable(0, 1)

    def test_heal_restores_traffic(self, net):
        scheduler, network = net
        b = Sink()
        network.register(0, Sink())
        network.register(1, b)
        network.set_partition(PartitionSpec.split({0}, {1}))
        network.heal_partition()
        network.send(ReadRequest(src=0, dst=1, key="k"))
        scheduler.run()
        assert len(b.received) == 1
        assert network.reachable(0, 1)


class TestLatencyModels:
    def test_fixed(self):
        assert fixed_latency(3.0)(random.Random(0)) == 3.0
        with pytest.raises(ValueError):
            fixed_latency(-1.0)

    def test_uniform(self):
        rng = random.Random(0)
        model = uniform_latency(1.0, 2.0)
        for _ in range(50):
            assert 1.0 <= model(rng) <= 2.0
        with pytest.raises(ValueError):
            uniform_latency(3.0, 2.0)

    def test_exponential(self):
        rng = random.Random(0)
        model = exponential_latency(2.0)
        samples = [model(rng) for _ in range(5000)]
        assert sum(samples) / len(samples) == pytest.approx(2.0, rel=0.1)
        with pytest.raises(ValueError):
            exponential_latency(0.0)
