"""Timed network partitions: the plan, the injector seam, and healing.

A :class:`PartitionEvent` cuts cross-partition copies at the physical
transmission seam for a bounded window, then heals implicitly.  The
properties that matter: the cut is time-deterministic (no RNG draws, so
zero-fault schedules stay bit-identical), direction-aware for asymmetric
failures, validated at system wiring time, and — because a partitioned
plan always gets the reliable-delivery layer — every cut copy is
retransmitted to exactly-once delivery after the heal.
"""

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.faults import (
    ChaosNetwork,
    CrashEvent,
    FaultPlan,
    PartitionEvent,
    build_network,
)
from repro.net import MessageKind, constant_latency
from repro.sim import RngRegistry, Simulator


class TestPartitionEvent:
    def test_schedule_validated(self):
        with pytest.raises(SimulationError):
            PartitionEvent(side_a=("a",), side_b=("b",), at=-1.0, duration=1.0)
        with pytest.raises(SimulationError):
            PartitionEvent(side_a=("a",), side_b=("b",), at=0.0, duration=0.0)

    def test_sides_validated(self):
        with pytest.raises(SimulationError):
            PartitionEvent(side_a=(), side_b=("b",), at=0.0, duration=1.0)
        with pytest.raises(SimulationError):
            # A node on both sides of the cut is a contradiction.
            PartitionEvent(side_a=("a", "b"), side_b=("b",), at=0.0,
                           duration=1.0)

    def test_symmetric_cut_and_heal_window(self):
        event = PartitionEvent(side_a=("a",), side_b=("b", "c"), at=2.0,
                               duration=3.0)
        assert event.heal_at == 5.0
        assert not event.cuts("a", "b", 1.9)       # before the window
        assert event.cuts("a", "b", 2.0)           # inclusive start
        assert event.cuts("b", "a", 4.0)           # symmetric: reverse too
        assert event.cuts("a", "c", 4.999)
        assert not event.cuts("a", "b", 5.0)       # exclusive heal instant
        assert not event.cuts("b", "c", 3.0)       # same side: unaffected
        assert not event.cuts("x", "b", 3.0)       # outsiders: unaffected

    def test_asymmetric_cut_is_one_way(self):
        event = PartitionEvent(side_a=("a",), side_b=("b",), at=0.0,
                               duration=10.0, symmetric=False)
        assert event.cuts("a", "b", 5.0)
        assert not event.cuts("b", "a", 5.0)

    def test_plan_cut_and_lossy(self):
        event = PartitionEvent(side_a=("a",), side_b=("b",), at=0.0,
                               duration=4.0)
        plan = FaultPlan(partitions=(event,))
        assert plan.cut("a", "b", 1.0)
        assert not plan.cut("a", "b", 4.0)
        # Partitioned plans need the reliable layer (cut copies must be
        # retransmitted after the heal, not lost forever).
        assert plan.lossy
        assert not FaultPlan().lossy

    def test_plan_cut_equals_the_scan_over_every_partition(self):
        # ``cut`` answers from windows laid out when the plan is built;
        # the scan it replaced is the definition.  Also after
        # ``dataclasses.replace``, which is how the runner adds events.
        nodes = ("a", "b", "c", "d")
        storm = FaultPlan.storm(nodes, partition_count=3, fault_seed=4,
                                duration=90.0)
        widened = dataclasses.replace(storm, partitions=storm.partitions + (
            PartitionEvent(side_a=("a", "c"), side_b=("b",), at=20.0,
                           duration=30.0, symmetric=False),
        ))
        for plan in (storm, widened, FaultPlan()):
            edges = {0.0, 95.0}
            for event in plan.partitions:
                edges |= {event.at, event.heal_at,
                          event.at - 1e-9, event.heal_at - 1e-9,
                          (event.at + event.heal_at) / 2}
            for now in sorted(edges):
                for src in nodes:
                    for dst in nodes:
                        assert plan.cut(src, dst, now) == any(
                            event.cuts(src, dst, now)
                            for event in plan.partitions)
        assert any(widened.cut("a", "b", now) != storm.cut("a", "b", now)
                   for now in (25.0, 35.0, 45.0))


class TestPartitionInjection:
    def _network(self, plan):
        sim = Simulator()
        network = build_network(sim, plan, rngs=RngRegistry(1),
                                latency=constant_latency(1.0))
        network.register("a")
        network.register("b")
        return sim, network

    def test_partition_only_plan_gets_reliable_layer(self):
        plan = FaultPlan(partitions=(
            PartitionEvent(side_a=("a",), side_b=("b",), at=0.0,
                           duration=5.0),
        ))
        _, network = self._network(plan)
        assert isinstance(network, ChaosNetwork)

    def test_cut_copies_counted_and_delivered_after_heal(self):
        """A message sent mid-partition reaches its mailbox exactly once,
        and only after the heal — the retransmit timer outlives the cut."""
        plan = FaultPlan(partitions=(
            PartitionEvent(side_a=("a",), side_b=("b",), at=0.0,
                           duration=5.0),
        ))
        sim, network = self._network(plan)
        network.send("a", "b", MessageKind.SUBTXN_REQUEST, payload="x")
        sim.run()
        inbox = network.mailbox("b").drain()
        assert [m.payload for m in inbox] == ["x"]
        assert inbox[0].delivered_at >= 5.0
        assert network.stats.partition_dropped > 0
        assert network.pending_unacked == 0

    def test_healed_partition_draws_and_drops_nothing(self):
        plan = FaultPlan(partitions=(
            PartitionEvent(side_a=("a",), side_b=("b",), at=0.0,
                           duration=1.0),
        ))
        sim, network = self._network(plan)

        def send_all():
            for i in range(5):
                network.send("a", "b", MessageKind.SUBTXN_REQUEST, payload=i)

        sim.schedule(2.0, send_all)  # strictly after the heal
        sim.run()
        assert len(network.mailbox("b")) == 5
        assert network.stats.partition_dropped == 0
        assert network.stats.retransmits == 0

    def test_asymmetric_partition_cuts_one_direction_only(self):
        plan = FaultPlan(partitions=(
            PartitionEvent(side_a=("a",), side_b=("b",), at=0.0,
                           duration=4.0, symmetric=False),
        ))
        sim, network = self._network(plan)
        network.send("a", "b", MessageKind.SUBTXN_REQUEST, payload="cut")
        network.send("b", "a", MessageKind.SUBTXN_REQUEST, payload="open")
        sim.run(until=3.0)
        assert len(network.mailbox("b")) == 0
        assert [m.payload for m in network.mailbox("a").drain()] == ["open"]


class TestWiringValidation:
    def _system(self, plan):
        from repro.core import ThreeVSystem

        return ThreeVSystem(["p", "q"], seed=1, faults=plan)

    def test_unknown_partition_member_rejected(self):
        plan = FaultPlan(partitions=(
            PartitionEvent(side_a=("p",), side_b=("typo",), at=0.0,
                           duration=1.0),
        ))
        with pytest.raises(SimulationError, match="typo"):
            self._system(plan)

    def test_unknown_crash_target_rejected(self):
        plan = FaultPlan(crashes=(
            CrashEvent(node="ghost", at=1.0, down_for=1.0),
        ))
        with pytest.raises(SimulationError, match="ghost"):
            self._system(plan)

    def test_coordinator_is_a_valid_extra_target_on_3v_only(self):
        plan = FaultPlan(crashes=(
            CrashEvent(node="coordinator", at=1.0, down_for=1.0),
        ))
        self._system(plan)  # 3V declares the extra target: accepted
        from repro.baselines.nocoord import NoCoordSystem

        with pytest.raises(SimulationError, match="coordinator"):
            NoCoordSystem(["p", "q"], seed=1, faults=plan)


class TestStormPartitions:
    def test_default_crash_window_preserves_schedules(self):
        kwargs = dict(drop_rate=0.1, crash_count=2, fault_seed=9,
                      duration=30.0)
        nodes = ["a", "b", "c"]
        assert (FaultPlan.storm(nodes, **kwargs)
                == FaultPlan.storm(nodes, crash_window=0.7, **kwargs))

    def test_crash_window_confines_whole_cycles(self):
        plan = FaultPlan.storm(["p", "q"], crash_count=3, fault_seed=3,
                               duration=40.0, crash_window=0.5)
        assert plan.crashes
        for event in plan.crashes:
            assert event.at + event.down_for < 0.5 * 40.0

    def test_crash_window_validated(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(SimulationError):
                FaultPlan.storm(["p"], crash_count=1, crash_window=bad)
        with pytest.raises(SimulationError):
            FaultPlan.storm(["p"], partition_count=-1)

    def test_partition_storm_deterministic_and_confined(self):
        nodes = ["n0", "n1", "n2", "n3"]
        kwargs = dict(crash_count=1, partition_count=2, fault_seed=11,
                      duration=30.0)
        one = FaultPlan.storm(nodes, **kwargs)
        two = FaultPlan.storm(list(reversed(nodes)), **kwargs)
        assert one == two
        assert len(one.partitions) == 2
        for event in one.partitions:
            assert event.heal_at < 0.7 * 30.0
            # Each cut splits the sorted node list into two cohorts.
            assert sorted(event.side_a + event.side_b) == sorted(nodes)

    def test_partitions_never_perturb_the_crash_schedule(self):
        kwargs = dict(crash_count=2, fault_seed=5, duration=25.0)
        without = FaultPlan.storm(["a", "b", "c"], **kwargs)
        with_cuts = FaultPlan.storm(["a", "b", "c"], partition_count=3,
                                    **kwargs)
        assert without.crashes == with_cuts.crashes
        assert not without.partitions and len(with_cuts.partitions) == 3
