"""The fault-injection stack in isolation: plans, fault stages, reliable
delivery.

Covers the pure-data :class:`FaultPlan` (validation, storm determinism),
the network's fault stages (seeded drops/dups/spikes), reliable delivery
(exactly-once over arbitrary lossy links — the Hypothesis properties),
and mailbox freeze/thaw.  The bare injector and reliable delivery without
faults, which no runtime caller builds, run against the old classes kept
in ``tests/reference_network.py``.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.faults import CrashEvent, FaultPlan, LinkFaults, RetransmitPolicy
from repro.net import MessageKind, Network, constant_latency
from repro.sim import RngRegistry, Simulator
from repro.sim.resources import Store

from tests.reference_network import FaultyNetwork, ReliableNetwork

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestFaultPlan:
    def test_probabilities_validated(self):
        with pytest.raises(SimulationError):
            LinkFaults(drop=1.0)
        with pytest.raises(SimulationError):
            LinkFaults(dup=-0.1)
        with pytest.raises(SimulationError):
            LinkFaults(spike_probability=0.1, spike_delay=-1.0)

    def test_crash_event_validated(self):
        with pytest.raises(SimulationError):
            CrashEvent(node="p", at=-1.0, down_for=1.0)
        with pytest.raises(SimulationError):
            CrashEvent(node="p", at=0.0, down_for=0.0)

    def test_link_override_lookup(self):
        slow = LinkFaults(drop=0.5)
        plan = FaultPlan(default_link=LinkFaults(), links={("p", "q"): slow})
        assert plan.lossy  # the override makes the plan lossy
        network = Network(Simulator(), faults=plan)
        network.register("p")
        network.register("q")
        for _ in range(20):
            network.send("q", "p", MessageKind.SUBTXN_REQUEST)
        assert network.stats.dropped == 0  # q -> p takes the default
        for _ in range(20):
            network.send("p", "q", MessageKind.SUBTXN_REQUEST)
        assert network.stats.dropped > 0  # p -> q takes the override

    def test_zero_plan_is_not_lossy(self):
        assert not FaultPlan().lossy
        assert not LinkFaults().active

    def test_storm_is_deterministic(self):
        nodes = ["b", "a", "c"]
        one = FaultPlan.storm(nodes, drop_rate=0.1, crash_count=2,
                              fault_seed=9, duration=30.0)
        # Caller node order must not matter.
        two = FaultPlan.storm(sorted(nodes), drop_rate=0.1, crash_count=2,
                              fault_seed=9, duration=30.0)
        assert one == two
        other = FaultPlan.storm(nodes, drop_rate=0.1, crash_count=2,
                                fault_seed=10, duration=30.0)
        assert one.crashes != other.crashes

    def test_storm_crashes_confined_and_disjoint(self):
        plan = FaultPlan.storm(["p", "q"], crash_count=3, fault_seed=3,
                               duration=40.0)
        assert len(plan.crashes) == 6
        by_node = {}
        for event in plan.crashes:
            assert 0.0 <= event.at
            assert event.at + event.down_for < 0.7 * 40.0
            by_node.setdefault(event.node, []).append(event)
        for events in by_node.values():
            events.sort(key=lambda e: e.at)
            for first, second in zip(events, events[1:]):
                assert first.at + first.down_for < second.at

    def test_storm_rejects_bad_shape(self):
        with pytest.raises(SimulationError):
            FaultPlan.storm(["p"], crash_count=-1)
        with pytest.raises(SimulationError):
            FaultPlan.storm(["p"], duration=0.0)


def _lossy_pair(plan):
    """A two-endpoint network running ``plan``."""
    sim = Simulator()
    network = Network(sim, rngs=RngRegistry(1),
                      latency=constant_latency(1.0), faults=plan)
    network.register("a")
    network.register("b")
    return sim, network


class TestFaultyNetwork:
    def test_zero_fault_link_draws_nothing(self):
        plan = FaultPlan()  # all-zero: no drops, no dups, no spikes
        sim, network = _lossy_pair(plan)
        for i in range(10):
            network.send("a", "b", MessageKind.SUBTXN_REQUEST, payload=i)
        sim.run()
        assert MessageKind.NET_ACK not in network.stats.sent_by_kind
        assert sim.scheduled_count == 10  # deliveries only: no timers
        assert len(network.mailbox("b")) == 10
        assert network.stats.dropped == 0
        assert network.stats.duplicated == 0

    def test_drops_lose_messages_without_reliable_layer(self):
        plan = FaultPlan(default_link=LinkFaults(drop=0.5))
        sim = Simulator()
        # The bare injector (reference only): drops are permanent, where
        # the one Network would retransmit them.
        network = FaultyNetwork(sim, plan=plan, rngs=RngRegistry(1),
                                latency=constant_latency(1.0))
        network.register("a")
        network.register("b")
        for i in range(40):
            network.send("a", "b", MessageKind.SUBTXN_REQUEST, payload=i)
        sim.run()
        delivered = len(network.mailbox("b"))
        assert delivered + network.stats.dropped == 40
        assert 0 < network.stats.dropped < 40

    def test_duplicates_share_message_id(self):
        plan = FaultPlan(default_link=LinkFaults(dup=0.9))
        sim = Simulator()
        network = FaultyNetwork(sim, plan=plan, rngs=RngRegistry(1),
                                latency=constant_latency(1.0))
        network.register("a")
        network.register("b")
        sent = [network.send("a", "b", MessageKind.SUBTXN_REQUEST, payload=i)
                for i in range(20)]
        sim.run()
        inbox = network.mailbox("b").drain()
        assert network.stats.duplicated > 0
        assert len(inbox) == 20 + network.stats.duplicated
        valid_ids = {m.message_id for m in sent}
        assert {m.message_id for m in inbox} == valid_ids

    def test_spikes_delay_delivery(self):
        plan = FaultPlan(
            default_link=LinkFaults(spike_probability=0.99,
                                    spike_delay=50.0),
        )
        sim, network = _lossy_pair(plan)
        network.send("a", "b", MessageKind.SUBTXN_REQUEST)
        sim.run()
        # Spike-only is not lossy: no acks, no timers.
        assert MessageKind.NET_ACK not in network.stats.sent_by_kind
        inbox = network.mailbox("b").drain()
        assert inbox[0].delivered_at == pytest.approx(51.0)

    def test_fault_schedule_independent_of_workload_rng(self):
        """Same fault seed + same send sequence -> same drops, regardless
        of the workload registry's seed."""
        counts = []
        for workload_seed in (1, 99):
            plan = FaultPlan(fault_seed=5,
                             default_link=LinkFaults(drop=0.3))
            sim = Simulator()
            network = FaultyNetwork(sim, plan=plan,
                                    rngs=RngRegistry(workload_seed),
                                    latency=constant_latency(1.0))
            network.register("a")
            network.register("b")
            for i in range(30):
                network.send("a", "b", MessageKind.SUBTXN_REQUEST, i)
            sim.run()
            counts.append(network.stats.dropped)
        assert counts[0] == counts[1] > 0


class TestReliableDelivery:
    def _run_storm(self, drop, dup, count, fault_seed=0, workload_seed=1):
        plan = FaultPlan(
            fault_seed=fault_seed,
            default_link=LinkFaults(drop=drop, dup=dup),
            retransmit=RetransmitPolicy(timeout=3.0, jitter=0.25),
        )
        sim = Simulator()
        network = Network(sim, rngs=RngRegistry(workload_seed),
                          latency=constant_latency(1.0), faults=plan)
        network.register("a")
        network.register("b")
        for i in range(count):
            network.send("a", "b", MessageKind.SUBTXN_REQUEST, payload=i)
        sim.run()
        return sim, network

    @SLOW
    @given(
        drop=st.floats(min_value=0.0, max_value=0.8),
        dup=st.floats(min_value=0.0, max_value=0.8),
        count=st.integers(min_value=1, max_value=30),
        fault_seed=st.integers(min_value=0, max_value=1000),
    )
    def test_exactly_once_delivery(self, drop, dup, count, fault_seed):
        """Any drop/dup/reorder schedule: every payload reaches the
        mailbox exactly once and nothing stays unacked."""
        sim, network = self._run_storm(drop, dup, count,
                                       fault_seed=fault_seed)
        payloads = [m.payload for m in network.mailbox("b").drain()]
        assert sorted(payloads) == list(range(count))
        assert network.pending_unacked == 0

    @SLOW
    @given(
        drop=st.floats(min_value=0.1, max_value=0.7),
        fault_seed=st.integers(min_value=0, max_value=1000),
    )
    def test_backoff_schedule_deterministic(self, drop, fault_seed):
        """Two identically-seeded storms retransmit identically and go
        quiet at the same instant."""
        runs = [self._run_storm(drop, 0.1, 12, fault_seed=fault_seed)
                for _ in range(2)]
        (sim1, net1), (sim2, net2) = runs
        assert net1.stats.retransmits == net2.stats.retransmits
        assert net1.stats.dropped == net2.stats.dropped
        assert net1.stats.dup_suppressed == net2.stats.dup_suppressed
        assert sim1.now == sim2.now
        assert sim1.scheduled_count == sim2.scheduled_count

    def test_acks_never_reach_mailboxes_or_kind_buckets(self):
        sim, network = self._run_storm(0.4, 0.2, 25)
        for message in network.mailbox("b").drain():
            assert message.kind is not MessageKind.NET_ACK
        assert MessageKind.NET_ACK not in MessageKind.USER_KINDS
        assert MessageKind.NET_ACK not in MessageKind.CONTROL_KINDS
        assert MessageKind.NET_ACK not in MessageKind.COMMIT_KINDS

    def test_lossless_reliable_layer_never_retransmits_needlessly(self):
        """With no faults the timers all die quietly after the acks (the
        reference reliable layer: no plan turns it on without faults)."""
        sim = Simulator()
        network = ReliableNetwork(sim, rngs=RngRegistry(1),
                                  latency=constant_latency(1.0))
        network.register("a")
        network.register("b")
        for i in range(10):
            network.send("a", "b", MessageKind.SUBTXN_REQUEST, payload=i)
        sim.run()
        assert network.stats.retransmits == 0
        assert network.pending_unacked == 0
        assert len(network.mailbox("b")) == 10

    def test_reliable_delivery_only_when_lossy(self):
        for plan, acked in ((FaultPlan(default_link=LinkFaults(drop=0.1)),
                             True),
                            (FaultPlan(), False),
                            (None, False)):
            sim, network = _lossy_pair(plan)
            network.send("a", "b", MessageKind.SUBTXN_REQUEST)
            sim.run()
            sent = network.stats.sent_by_kind
            assert (MessageKind.NET_ACK in sent) is acked
            assert network.pending_unacked == 0


class TestMailboxFreeze:
    def test_frozen_store_buffers_and_thaw_flushes(self):
        sim = Simulator()
        store = Store(sim)
        got = []
        store.consume(got.append)
        store.freeze()
        store.put("x")
        sim.run()
        assert got == []  # the consumer is starved while frozen
        store.thaw()
        sim.run()
        assert got == ["x"]

    def test_frozen_store_starves_a_new_consumer(self):
        sim = Simulator()
        store = Store(sim)
        store.put("x")
        store.freeze()
        got = []
        store.consume(got.append)
        sim.run()
        assert got == []
        store.thaw()
        sim.run()
        assert got == ["x"]
