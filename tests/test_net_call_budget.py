"""The network's per-copy call budget.

Every physical copy of a message — a first send, a retransmit, a dup, an
ack — runs one short call chain: ``send`` (or the retransmit timer, or
the delivery that acks), the envelope's ``__init__`` and its id's
``next``, the fault stages in ``_transmit``, ``_wire``, one bound
latency draw plus ``random()``, ``Simulator.schedule`` plus
``heappush``, and on the far side ``heappop``, ``_deliver`` and the
mailbox's ``put``.  The latency model,
the plan's link fields and partition windows and the retransmit timing
are bound once, when the network is built.

This test drives a fixed send schedule under ``cProfile`` and holds the
profiled calls (Python frames and builtins alike, as ``pstats`` counts
them) per wired copy at or below what that chain costs: 13.0 on a
fault-free network and 17.8 on a lossy, partitioned one.  The budgets
leave half a call per copy of slack, so a stage that grows one more
frame or builtin per copy fails here.  The profiled region holds no
comprehension, whose frame some Python versions inline and others do
not.
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
    """Profiled calls per wired copy of one fixed schedule's whole run."""
    sim = Simulator()
    network = Network(sim, rngs=RngRegistry(5),
                      latency=UniformLatency(Uniform(0.5, 1.5)), faults=plan)
    for endpoint in ENDPOINTS:
        network.register(endpoint).consume(ignore)
    for i in range(SENDS):
        sim.schedule(i * 0.1, network.send, ENDPOINTS[i % 4],
                     ENDPOINTS[(i * 3 + 1) % 4], MessageKind.SUBTXN_REQUEST, i)
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run()
    profiler.disable()
    stats = network.stats
    assert network.pending_unacked == 0
    return pstats.Stats(profiler).total_calls / stats.total_sent, stats


@pytest.mark.parametrize("plan, budget", [(None, 13.5), (LOSSY, 18.3)],
                         ids=["fault-free", "lossy-partitioned"])
def test_calls_per_wired_copy_stay_within_budget(plan, budget):
    per_copy, stats = calls_per_copy(plan)
    if plan is not None:
        # The schedule reaches every per-copy path the budget covers.
        assert min(stats.retransmits, stats.dropped, stats.duplicated,
                   stats.partition_dropped, stats.dup_suppressed) > 0
    assert per_copy <= budget, f"{per_copy:.2f} calls per copy"
