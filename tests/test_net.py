"""Unit tests for the simulated network layer."""

import pytest

from repro.errors import SimulationError
from repro.net import (
    LocalRemoteLatency,
    MessageKind,
    Network,
    PartitionedLatency,
    SkewedLatency,
    UniformLatency,
    constant_latency,
)
from repro.sim import Constant, Exponential, RngRegistry, Simulator, Uniform


@pytest.fixture
def sim():
    return Simulator()


def make_network(sim, **kwargs):
    network = Network(sim, rngs=RngRegistry(7), **kwargs)
    for node in ("p", "q", "s"):
        network.register(node)
    return network


class TestDelivery:
    def test_message_arrives_after_latency(self, sim):
        network = make_network(sim, latency=constant_latency(2.5))
        network.send("p", "q", MessageKind.SUBTXN_REQUEST, payload={"x": 1})
        received = []
        network.mailbox("q").consume(
            lambda message: received.append((sim.now, message)))
        sim.run()
        assert len(received) == 1
        time, message = received[0]
        assert time == 2.5
        assert message.payload == {"x": 1}
        assert message.latency == 2.5

    def test_send_to_unknown_endpoint_raises(self, sim):
        network = make_network(sim)
        with pytest.raises(SimulationError):
            network.send("p", "nowhere", MessageKind.SUBTXN_REQUEST)

    def test_mailbox_of_unknown_endpoint_raises(self, sim):
        network = make_network(sim)
        with pytest.raises(SimulationError):
            network.mailbox("nowhere")

    def test_latency_before_delivery_raises(self, sim):
        network = make_network(sim)
        message = network.send("p", "q", MessageKind.SUBTXN_REQUEST)
        with pytest.raises(ValueError):
            _ = message.latency

    def test_broadcast_reaches_everyone(self, sim):
        network = make_network(sim)
        messages = network.broadcast_to(
            "p", ("p", "q", "s"), MessageKind.START_ADVANCEMENT, payload=2
        )
        assert sorted(m.dst for m in messages) == ["p", "q", "s"]
        sim.run()
        for node in ("p", "q", "s"):
            assert len(network.mailbox(node)) == 1

    def test_broadcast_excluding_self(self, sim):
        network = make_network(sim)
        messages = network.broadcast_to(
            "p", ("q", "s"), MessageKind.START_ADVANCEMENT
        )
        assert sorted(m.dst for m in messages) == ["q", "s"]

    def test_variable_latency_reorders_messages(self, sim):
        """Non-FIFO delivery: a later send can overtake an earlier one."""
        network = make_network(sim, latency=UniformLatency(Uniform(0.1, 10.0)))
        order = []
        network.mailbox("q").consume(
            lambda message: order.append(message.payload))
        for i in range(40):
            sim.schedule(i * 0.01, network.send, "p", "q",
                         MessageKind.SUBTXN_REQUEST, i)
        sim.run()
        assert sorted(order) == list(range(40))
        assert order != list(range(40)), "expected at least one overtake"


class TestLatencyModels:
    def test_local_remote_split(self, sim):
        rngs = RngRegistry(1)
        model = LocalRemoteLatency(local=Constant(0.1), remote=Constant(5.0))
        assert model.delay("p", "p", rngs) == 0.1
        assert model.delay("p", "q", rngs) == 5.0

    def test_skewed_slow_links(self, sim):
        rngs = RngRegistry(1)
        model = SkewedLatency(
            fast=Constant(1.0), slow=Constant(50.0), slow_links=[("p", "s")]
        )
        assert model.delay("p", "q", rngs) == 1.0
        assert model.delay("p", "s", rngs) == 50.0
        assert model.delay("s", "p", rngs) == 1.0

    def test_partition_holds_messages_during_window(self, sim):
        rngs = RngRegistry(1)
        model = PartitionedLatency(
            base=constant_latency(1.0),
            stalled_links=[("p", "q")],
            start=0.0,
            end=100.0,
        )
        model.bind_clock(lambda: sim.now)
        assert model.delay("p", "q", rngs) == pytest.approx(101.0)
        assert model.delay("q", "p", rngs) == pytest.approx(1.0)

    def test_partition_over(self, sim):
        rngs = RngRegistry(1)
        model = PartitionedLatency(
            base=constant_latency(1.0),
            stalled_links=[("p", "q")],
            start=0.0,
            end=100.0,
        )
        model.bind_clock(lambda: 200.0)
        assert model.delay("p", "q", rngs) == pytest.approx(1.0)

    def test_partition_reversed_window_rejected(self, sim):
        with pytest.raises(SimulationError):
            PartitionedLatency(
                base=constant_latency(1.0),
                stalled_links=[],
                start=5.0,
                end=1.0,
            )

    def test_partition_now_kwarg_removed(self, sim):
        # The PR-4 deprecation shim is gone: the clock arrives only via
        # bind_clock (which the owning Network calls on construction).
        with pytest.raises(TypeError):
            PartitionedLatency(
                base=constant_latency(1.0),
                stalled_links=[("p", "q")],
                start=0.0,
                end=100.0,
                now=lambda: 200.0,
            )

    def test_rebinding_clock_wins(self, sim):
        rngs = RngRegistry(1)
        model = PartitionedLatency(
            base=constant_latency(1.0),
            stalled_links=[("p", "q")],
            start=0.0,
            end=100.0,
        )
        model.bind_clock(lambda: 0.0)
        model.bind_clock(lambda: 200.0)
        assert model.delay("p", "q", rngs) == pytest.approx(1.0)

    def test_partition_without_clock_raises(self, sim):
        rngs = RngRegistry(1)
        model = PartitionedLatency(
            base=constant_latency(1.0),
            stalled_links=[("p", "q")],
            start=0.0,
            end=100.0,
        )
        with pytest.raises(SimulationError):
            model.delay("p", "q", rngs)

    def test_network_binds_clock_to_latency_model(self):
        from repro.net import Network

        sim = Simulator()
        model = PartitionedLatency(
            base=constant_latency(1.0),
            stalled_links=[("p", "q")],
            start=0.0,
            end=100.0,
        )
        network = Network(sim, rngs=RngRegistry(1), latency=model)
        network.register("p")
        network.register("q")
        network.send("p", "q", MessageKind.SUBTXN_REQUEST)
        # Stalled window: the message is held until the partition heals.
        assert sim.peek_time() == pytest.approx(101.0)

    def test_exponential_latency_is_positive(self, sim):
        rngs = RngRegistry(3)
        model = UniformLatency(Exponential(2.0))
        samples = [model.delay("p", "q", rngs) for _ in range(200)]
        assert all(s >= 0 for s in samples)
        assert 1.0 < sum(samples) / len(samples) < 3.5


class TestStats:
    def test_traffic_accounting_by_category(self, sim):
        network = make_network(sim)
        network.send("p", "q", MessageKind.SUBTXN_REQUEST)
        network.send("p", "q", MessageKind.SUBTXN_REQUEST)
        network.send("p", "q", MessageKind.COMPLETION_NOTICE)
        network.send("p", "q", MessageKind.START_ADVANCEMENT)
        network.send("p", "q", MessageKind.PREPARE)
        sim.run()
        assert network.stats.total_sent == 5
        assert network.stats.user_messages == 3
        assert network.stats.control_messages == 1
        assert network.stats.commit_messages == 1

    def test_reproducible_latencies_from_seed(self):
        def run_once():
            sim = Simulator()
            network = Network(
                sim, rngs=RngRegistry(42),
                latency=UniformLatency(Uniform(0.0, 1.0)),
            )
            network.register("a")
            network.register("b")
            deliveries = []
            network.mailbox("b").consume(
                lambda _message: deliveries.append(sim.now))
            for _ in range(10):
                network.send("a", "b", MessageKind.SUBTXN_REQUEST)
            sim.run()
            return deliveries

        assert run_once() == run_once()
