"""The one ``Network`` against the tower it replaced.

``tests/reference_network.py`` keeps the old four-class composition
(base ``Network``, ``FaultyNetwork``, ``ReliableNetwork``,
``ChaosNetwork``) verbatim.  For any fault plan, send schedule,
``batch_delivery`` setting and latency model the new network must
deliver the same messages at the same times, keep the same counters
and leave every RNG stream — latency, retransmit jitter, drop, dup,
spike — in the same state.

Scheduled callbacks are the one thing allowed to differ, and only down:
the new network stamps an ack's arrival instead of delivering it, and
arms a retransmit timer only when it can fire, where the tower delivered
every ack and armed a timer per transmission.  So it schedules at most
the tower's callbacks, exactly as many when the plan is not lossy, and
its drain can end before the tower's last (no-op) ack or timer.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exp import ExperimentSpec
from repro.faults import FaultPlan, LinkFaults, PartitionEvent, RetransmitPolicy
from repro.net import (
    LinkLatency,
    LocalRemoteLatency,
    Message,
    MessageKind,
    Network,
    PartitionedLatency,
    SkewedLatency,
    UniformLatency,
)
from repro.sim import RngRegistry, Simulator
from repro.sim.distributions import Constant, LogNormal, Uniform
from repro.workloads import run_recording_experiment

from tests import reference_network as reference

ENDPOINTS = ("e0", "e1", "e2", "e3")
FAULT_STREAMS = (("faults.drop", "_drop_rng"), ("faults.dup", "_dup_rng"),
                 ("faults.spike", "_spike_rng"))
STATS_FIELDS = ("retransmits", "dup_suppressed", "dropped", "duplicated",
                "batches", "batched_messages", "partition_dropped",
                "stale_epoch_dropped")
#: Replies per delivered message, so sends interleave with delivery.
MAX_HOPS = 2
JITTERED = Uniform(0.5, 1.5)
#: Latency models by name, built fresh per run.  ``uniform`` and
#: ``constant`` take the network's closed-form draw; every other model
#: (``lognormal`` included) the generic binding of ``LatencyModel.delay``.
LATENCIES = {
    "none": lambda: None,
    "uniform": lambda: UniformLatency(JITTERED),
    "constant": lambda: UniformLatency(Constant(0.75)),
    "lognormal": lambda: UniformLatency(LogNormal(1.0, 0.5)),
    "local-remote": lambda: LocalRemoteLatency(Constant(0.1), JITTERED),
    "skewed": lambda: SkewedLatency(
        JITTERED, Uniform(2.0, 4.0),
        slow_links=[("e0", "e1"), ("e2", "e0"), ("e3", "e3")]),
    "link": lambda: LinkLatency(
        {("e0", "e1"): Uniform(0.2, 0.4), ("e1", "e0"): Constant(3.0),
         ("e2", "e3"): LogNormal(0.8, 0.3)},
        default=JITTERED),
    "partitioned": lambda: PartitionedLatency(
        UniformLatency(JITTERED), stalled_links=[("e0", "e1"), ("e1", "e2")],
        start=1.0, end=4.0),
}


def link_faults():
    probability = st.sampled_from([0.0, 0.1, 0.3, 0.5])
    return st.builds(
        LinkFaults, drop=probability, dup=probability,
        spike_probability=probability,
        spike_delay=st.sampled_from([0.0, 2.5, 7.0]),
    )


@st.composite
def plans(draw):
    """``None``, an all-zero plan, or any mix of default-link faults,
    per-link overrides and symmetric / asymmetric partitions."""
    shape = draw(st.sampled_from(["none", "zero", "faulty"]))
    if shape == "none":
        return None
    if shape == "zero":
        return FaultPlan(fault_seed=draw(st.integers(0, 50)))
    pairs = [(a, b) for a in ENDPOINTS for b in ENDPOINTS if a != b]
    links = draw(st.dictionaries(st.sampled_from(pairs), link_faults(),
                                 max_size=4))
    partitions = []
    for _ in range(draw(st.integers(0, 2))):
        split = draw(st.integers(1, len(ENDPOINTS) - 1))
        members = draw(st.permutations(ENDPOINTS))
        partitions.append(PartitionEvent(
            side_a=tuple(members[:split]), side_b=tuple(members[split:]),
            at=draw(st.sampled_from([0.0, 1.0, 4.0])),
            duration=draw(st.sampled_from([0.5, 3.0, 8.0])),
            symmetric=draw(st.booleans()),
        ))
    return FaultPlan(
        fault_seed=draw(st.integers(0, 50)),
        default_link=draw(link_faults()),
        links=links,
        partitions=tuple(partitions),
        retransmit=RetransmitPolicy(timeout=draw(st.sampled_from([2.0, 5.0])),
                                    jitter=0.5),
    )


sends = st.lists(
    st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5, 6.0]),
              st.sampled_from(ENDPOINTS), st.sampled_from(ENDPOINTS),
              st.sampled_from([MessageKind.SUBTXN_REQUEST,
                               MessageKind.START_ADVANCEMENT])),
    min_size=1, max_size=14,
)


def build_reference(sim, plan, rngs, latency, batch):
    if plan is None:
        return reference.Network(sim, rngs=rngs, latency=latency,
                                 batch_delivery=batch)
    return reference.build_network(sim, plan, rngs=rngs, latency=latency,
                                   batch_delivery=batch)


def build_new(sim, plan, rngs, latency, batch):
    return Network(sim, rngs=rngs, latency=latency, batch_delivery=batch,
                   faults=plan)


#: Keys of :func:`run` that may differ from the tower's (see above).
SCHEDULING = ("scheduled", "now")


def run(build, plan, schedule, batch, latency):
    """Drive one network; return everything observable about the run."""
    sim = Simulator()
    rngs = RngRegistry(3)
    latency = LATENCIES[latency]()
    network = build(sim, plan, rngs, latency, batch)
    # Message ids come from one process-wide counter; compare them
    # relative to the first id this run could allocate.
    base = Message(src="", dst="", kind="").message_id + 1
    log = []

    def consume(endpoint, message):
        log.append((message.delivered_at, endpoint,
                    message.message_id - base, message.payload))
        label, hops = message.payload
        if hops < MAX_HOPS and message.src != endpoint:
            network.send(endpoint, message.src, message.kind,
                         (label, hops + 1))

    for endpoint in ENDPOINTS:
        network.register(endpoint).consume(
            functools.partial(consume, endpoint))
    for index, (at, src, dst, kind) in enumerate(schedule):
        sim.schedule(at, network.send, src, dst, kind, (index, 0))
    sim.run()
    stats = network.stats
    fault_registry = plan.rng_registry() if plan is not None else None
    faults = tuple(
        (getattr(network, attribute, None)
         or fault_registry.stream(name)).getstate()
        for name, attribute in FAULT_STREAMS
    ) if plan is not None else ()
    return {
        "log": log,
        "counters": tuple(getattr(stats, f) for f in STATS_FIELDS),
        "by_kind": (stats.sent_by_kind, stats.total_latency_by_kind),
        "scheduled": sim.scheduled_count,
        "now": sim.now,
        "pending": getattr(network, "pending_unacked", 0),
        "streams": {name: stream.getstate()
                    for name, stream in sorted(rngs._streams.items())},
        "fault_streams": faults,
    }


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plan=plans(), schedule=sends, batch=st.booleans(),
       latency=st.sampled_from(sorted(LATENCIES)))
def test_new_network_matches_the_tower(plan, schedule, batch, latency):
    old = run(build_reference, plan, schedule, batch, latency)
    built = []
    new = run(functools.partial(_keep, built), plan, schedule, batch,
              latency)
    assert_matches(new, old, lossy=plan is not None and plan.lossy)
    # Reliable delivery, where the plan asks for it, drains completely.
    assert new["pending"] == 0
    assert_forgets_every_id(built[0])


def _keep(built, *args):
    built.append(build_new(*args))
    return built[-1]


def assert_forgets_every_id(network):
    """A drained reliable network holds no delivered id: once a message
    is let go and no copy of it is in flight, no duplicate can arrive."""
    if network._seen is not None:
        assert network._seen == {} and network._in_flight == {}


def assert_matches(new, old, lossy):
    """Every key equal but the scheduling ones; those no higher, and
    equal without reliable delivery."""
    if lossy:
        for key in SCHEDULING:
            assert new.pop(key) <= old.pop(key), key
    assert new == old


@pytest.mark.parametrize("fault_seed", range(4))
def test_chaos_storm_matches_the_tower(fault_seed):
    """A heavier storm than Hypothesis draws: every counter fires."""
    plan = FaultPlan.storm(ENDPOINTS, drop_rate=0.3, dup_rate=0.2,
                           spike_probability=0.2, spike_delay=3.0,
                           partition_count=2, fault_seed=fault_seed,
                           duration=20.0)
    schedule = [(i * 0.25, ENDPOINTS[i % 4], ENDPOINTS[(i * 3 + 1) % 4],
                 MessageKind.SUBTXN_REQUEST) for i in range(60)]
    for batch in (False, True):
        old = run(build_reference, plan, schedule, batch, latency="none")
        built = []
        new = run(functools.partial(_keep, built), plan, schedule, batch,
                  latency="none")
        assert_matches(new, old, lossy=True)
        assert new["pending"] == 0
        assert_forgets_every_id(built[0])
        retransmits, suppressed, dropped, duplicated = new["counters"][:4]
        assert min(retransmits, suppressed, dropped, duplicated) > 0


def _pair(plan):
    sim = Simulator()
    network = Network(sim, rngs=RngRegistry(1), faults=plan)
    network.register("a")
    network.register("b")
    return sim, network


def test_dup_copy_skips_the_cut_and_the_draws():
    """The dup copy goes straight to the wire: one drop draw and one dup
    draw per transmitted copy, however many duplicates fire."""
    plan = FaultPlan(default_link=LinkFaults(drop=0.1, dup=0.9))
    sim, network = _pair(plan)
    for i in range(20):
        network.send("a", "b", MessageKind.SUBTXN_REQUEST, i)
    assert network.stats.duplicated > 0
    copies = 20 - network.stats.dropped
    fresh = plan.rng_registry()
    drop, dup = fresh.stream("faults.drop"), fresh.stream("faults.dup")
    for _ in range(20):
        drop.random()
    for _ in range(copies):
        dup.random()
    assert network._drop_rng.getstate() == drop.getstate()
    assert network._dup_rng.getstate() == dup.getstate()


def test_acks_pass_the_partition_cut():
    """A one-way cut of b -> a lets data through but eats every ack, so
    a keeps retransmitting until the heal and b suppresses the copies."""
    plan = FaultPlan(partitions=(
        PartitionEvent(side_a=("b",), side_b=("a",), at=0.0, duration=20.0,
                       symmetric=False),
    ))
    sim, network = _pair(plan)
    network.send("a", "b", MessageKind.SUBTXN_REQUEST, "x")
    sim.run()
    assert [m.payload for m in network.mailbox("b").drain()] == ["x"]
    assert network.stats.partition_dropped > 0
    assert network.stats.retransmits > 0
    assert network.stats.dup_suppressed == network.stats.retransmits
    assert network.pending_unacked == 0


def test_absent_and_zero_plans_draw_nothing():
    for plan in (None, FaultPlan()):
        sim = Simulator()
        rngs = RngRegistry(1)
        network = Network(sim, rngs=rngs, faults=plan)
        network.register("a")
        network.register("b")
        network.send("a", "b", MessageKind.SUBTXN_REQUEST)
        sim.run()
        assert network.faults is None
        assert "net.retransmit" not in rngs._streams
        assert sim.scheduled_count == 1  # the delivery; no timer
        assert network.stats.sent_by_kind == {MessageKind.SUBTXN_REQUEST: 1}



def test_a_drained_chaos_run_holds_no_delivered_id():
    """A whole lossy run drains its network: every id it delivered is
    forgotten again (the network used to keep all of them)."""
    spec = ExperimentSpec("3v", nodes=4, duration=15.0, drop_rate=0.05,
                          dup_rate=0.05, crash_count=1, fault_seed=5,
                          replication_factor=3)
    network = run_recording_experiment(
        spec.protocol, **spec.run_kwargs()).system.network
    assert network.stats.dup_suppressed > 0
    assert network._pending == {}
    assert len(network._seen) == 0 and network._in_flight == {}
