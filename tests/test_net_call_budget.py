"""The network's per-copy call budget.

Every physical copy of a message — a first send, a retransmit, a dup, an
ack — runs one short call chain: ``send`` (or the retransmit timer, or
the delivery that acks), the envelope's ``__init__`` (its id is a
module-level int, taken with no call), the fault stages in
``_transmit``, ``_wire``, one bound latency draw plus ``random()``,
``Simulator.schedule`` plus ``heappush``, and on the far side
``heappop``, ``_deliver`` and the mailbox's consumer, which ``_deliver``
calls itself.  The latency model, the plan's link fields and partition
windows and the retransmit timing are bound once, when the network is
built.

This test drives a fixed send schedule under ``cProfile`` and holds the
profiled calls (Python frames and builtins alike, as ``pstats`` counts
them) per wired copy at or below what that chain costs: 11.0 on a
fault-free network and 13.8 on a lossy, partitioned one, where the
chain that also called ``next`` for the id and ``Store.put`` from
``_deliver`` cost 13.0 and 15.2.  The budgets leave half a call per copy
of slack, so a stage that grows one more frame or builtin per copy fails
here.  The profiled region holds no comprehension, whose frame some
Python versions inline and others do not.

It also holds the scheduled callbacks per send: one delivery per
fault-free send, and 1.52 per reliable send on the lossy plan, where an
ack is an arrival stamp and a retransmit timer is armed only when it can
fire (a timer per transmission and a delivery per ack cost 3.60).
"""

from __future__ import annotations

import cProfile
import pstats

import pytest

from repro.faults import FaultPlan, LinkFaults, PartitionEvent
from repro.net import MessageKind, Network, UniformLatency
from repro.sim import RngRegistry, Simulator
from repro.sim.distributions import Uniform

ENDPOINTS = ("a", "b", "c", "d")
SENDS = 400

LOSSY = FaultPlan(
    fault_seed=2,
    default_link=LinkFaults(drop=0.1, dup=0.05),
    partitions=(PartitionEvent(side_a=("a",), side_b=("b", "c"), at=5.0,
                               duration=5.0),),
)


def ignore(message):
    """The mailbox consumer: takes each delivered message, does nothing."""


def calls_per_copy(plan):
    """Profiled calls per wired copy of one fixed schedule's whole run,
    the callbacks it scheduled per send, and the network's stats."""
    sim = Simulator()
    network = Network(sim, rngs=RngRegistry(5),
                      latency=UniformLatency(Uniform(0.5, 1.5)), faults=plan)
    for endpoint in ENDPOINTS:
        network.register(endpoint).consume(ignore)
    for i in range(SENDS):
        sim.schedule(i * 0.1, network.send, ENDPOINTS[i % 4],
                     ENDPOINTS[(i * 3 + 1) % 4], MessageKind.SUBTXN_REQUEST, i)
    sends = sim.scheduled_count
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run()
    profiler.disable()
    stats = network.stats
    assert network.pending_unacked == 0
    return (pstats.Stats(profiler).total_calls / stats.total_sent,
            (sim.scheduled_count - sends) / SENDS, stats)


@pytest.mark.parametrize("plan, budget", [(None, 11.5), (LOSSY, 14.3)],
                         ids=["fault-free", "lossy-partitioned"])
def test_calls_per_wired_copy_stay_within_budget(plan, budget):
    per_copy, _, stats = calls_per_copy(plan)
    if plan is not None:
        # The schedule reaches every per-copy path the budget covers.
        assert min(stats.retransmits, stats.dropped, stats.duplicated,
                   stats.partition_dropped, stats.dup_suppressed) > 0
    assert per_copy <= budget, f"{per_copy:.2f} calls per copy"


@pytest.mark.parametrize("plan, budget", [(None, 1.0), (LOSSY, 1.6)],
                         ids=["fault-free", "lossy-partitioned"])
def test_scheduled_callbacks_per_send_stay_within_budget(plan, budget):
    _, per_send, _ = calls_per_copy(plan)
    assert per_send <= budget, f"{per_send:.2f} callbacks per send"
