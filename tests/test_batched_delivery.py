"""Delivery batching equivalence: coalescing may not change anything
observable except the scheduled-event trace.

``Network._wire`` sits *below* the fault stages of ``_transmit`` and
above the mailboxes, so with the same fault seed a batched and an
unbatched run must make identical per-copy drop/spike/dup decisions,
deliver identical message sequences at identical times, and report
identical ``NetworkStats`` counters — reliable delivery's acks,
retransmissions, and dedup included.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan
from repro.net import MessageKind, constant_latency
from repro.net.network import Network
from repro.sim import Simulator
from repro.sim.distributions import RngRegistry

ENDPOINTS = ("a", "b", "c")


def drive(network, sim):
    """A scripted send pattern with plenty of same-tick convergence.

    Each round, every endpoint sends to every other endpoint at the same
    instant; under constant latency all copies toward one destination are
    due on the same tick — the case batching coalesces.
    """
    def round_of_sends(round_index):
        for src in ENDPOINTS:
            for dst in ENDPOINTS:
                if src != dst:
                    network.send(src, dst, "DATA",
                                 (round_index, src, dst))

    for round_index in range(40):
        sim.schedule(round_index * 0.5, round_of_sends, round_index)
    sim.run()


def delivered(network):
    """Drain every mailbox: ``{dst: [(src, payload, delivered_at)]}``."""
    log = {}
    for endpoint in ENDPOINTS:
        log[endpoint] = [
            (message.src, message.payload, message.delivered_at)
            for message in network.mailbox(endpoint).drain()
        ]
    return log


def run_network(make_network, batch):
    sim = Simulator()
    network = make_network(sim, batch)
    for endpoint in ENDPOINTS:
        network.register(endpoint)
    drive(network, sim)
    return network, delivered(network)


def stats_tuple(network):
    stats = network.stats
    return (stats.total_sent, stats.dropped, stats.duplicated,
            stats.retransmits, stats.dup_suppressed)


class TestFaultyNetworkEquivalence:
    @pytest.mark.parametrize("fault_seed", [0, 1, 2, 3, 4])
    def test_drop_dup_decisions_identical(self, fault_seed):
        """Same fault seed ⇒ same per-copy drop/dup draws, same stats,
        same deliveries — batched or not."""
        def make(sim, batch):
            plan = FaultPlan.storm(ENDPOINTS, drop_rate=0.3, dup_rate=0.25,
                                   fault_seed=fault_seed)
            return Network(sim, latency=constant_latency(1.0),
                           rngs=RngRegistry(7), batch_delivery=batch,
                           faults=plan)

        plain_net, plain_log = run_network(make, batch=False)
        batched_net, batched_log = run_network(make, batch=True)

        assert plain_log == batched_log
        assert stats_tuple(plain_net) == stats_tuple(batched_net)
        assert plain_net.stats.dropped > 0, "storm drew no drops"
        assert plain_net.stats.duplicated > 0, "storm drew no dups"
        # The unbatched run never opens a batch; the batched one must
        # actually coalesce the convergent same-tick copies.
        assert plain_net.stats.batches == 0
        assert plain_net.stats.batched_messages == 0
        assert batched_net.stats.batched_messages > 0

    def test_chaos_composition_identical(self):
        """Reliable delivery's acks/retransmits/dedup compose unchanged:
        the whole chaos path is trace-equivalent under batching."""
        def make(sim, batch):
            plan = FaultPlan.storm(ENDPOINTS, drop_rate=0.2, dup_rate=0.15,
                                   fault_seed=11)
            return Network(sim, latency=constant_latency(1.0),
                           rngs=RngRegistry(7), batch_delivery=batch,
                           faults=plan)

        plain_net, plain_log = run_network(make, batch=False)
        batched_net, batched_log = run_network(make, batch=True)

        assert plain_log == batched_log
        assert stats_tuple(plain_net) == stats_tuple(batched_net)
        assert plain_net.stats.retransmits > 0, "no retransmissions drawn"
        assert plain_net.stats.dup_suppressed > 0, "dedup never fired"
        assert batched_net.stats.batched_messages > 0
        for network in (plain_net, batched_net):
            assert network.stats.sent_by_kind[MessageKind.NET_ACK] > 0
            assert network.pending_unacked == 0


class TestPlainNetworkBatching:
    def test_same_tick_fanin_coalesces_to_one_event(self):
        sim = Simulator()
        network = Network(sim, latency=constant_latency(1.0),
                          batch_delivery=True)
        for endpoint in ENDPOINTS:
            network.register(endpoint)
        for src in ("a", "b"):
            network.send(src, "c", "DATA", src)
        sim.run()
        # Two same-tick copies toward "c" rode one scheduled callback
        # (the batch event, scheduled when the first copy transmitted).
        assert network.stats.batches == 1
        assert network.stats.batched_messages == 1
        assert sim.scheduled_count == 1
        log = delivered(network)
        assert [src for src, _, _ in log["c"]] == ["a", "b"]

    def test_same_tick_broadcast_coalesces_across_destinations(self):
        """Batches are keyed by delivery tick alone, so a broadcast's
        fan-out shares one event too — and still delivers in
        transmission order to each mailbox."""
        sim = Simulator()
        network = Network(sim, latency=constant_latency(1.0),
                          batch_delivery=True)
        for endpoint in ENDPOINTS:
            network.register(endpoint)
        network.broadcast_to("a", ("b", "c"), "DATA", "hello")
        sim.run()
        assert network.stats.batches == 1
        assert network.stats.batched_messages == 1
        assert sim.scheduled_count == 1
        log = delivered(network)
        assert [payload for _, payload, _ in log["b"]] == ["hello"]
        assert [payload for _, payload, _ in log["c"]] == ["hello"]

    def test_jittered_latency_keeps_order_and_content(self):
        """With distinct due times nothing coalesces, and batching is a
        pure pass-through."""
        from repro.net.latency import UniformLatency
        from repro.sim.distributions import Uniform

        def make(sim, batch):
            return Network(sim, rngs=RngRegistry(3),
                           latency=UniformLatency(Uniform(0.5, 1.5)),
                           batch_delivery=batch)

        plain_net, plain_log = run_network(make, batch=False)
        batched_net, batched_log = run_network(make, batch=True)
        assert plain_log == batched_log
        assert plain_net.stats.total_sent == batched_net.stats.total_sent
