"""Acks as arrival stamps, one hand-built fate at a time.

The reliable network stamps a surviving ack's arrival on the held
message instead of delivering it, and arms a retransmit timer only when
that timer can fire.  Each case below fixes every fault draw and the
retransmit jitter by script, times every copy with a constant one-unit
latency that logs when and on which link the copy leaves, and runs the
same send on the new ``Network`` and on the tower in
``tests/reference_network.py``, which delivers every ack and arms a
timer per transmission.  Every copy, the first send's and each
retransmit's, must leave at the same time on both; only the scheduled
callbacks differ.
"""

from __future__ import annotations

from repro.faults import FaultPlan, LinkFaults, RetransmitPolicy
from repro.net import LatencyModel, MessageKind, Network
from repro.sim import RngRegistry, Simulator

from tests import reference_network as reference

#: Timeout 5 with the jitter scripted to 0: the first deadline is 5.0,
#: the second 15.0.
POLICY = RetransmitPolicy(timeout=5.0, backoff=2.0, jitter=0.5)


class Departures(LatencyModel):
    """One time unit per copy, logging ``(now, src, dst)`` of each."""

    def __init__(self):
        self.log = []
        self._now = None

    def bind_clock(self, now):
        self._now = now

    def delay(self, src, dst, rngs):
        self.log.append((self._now(), src, dst))
        return 1.0


class Script:
    """A stand-in RNG stream: returns the given draws in order."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self):
        return self._draws.pop(0)


def start(build, links, drops=(), dups=(), spikes=()):
    """Send one message a -> b at time 0 on a network ``build`` makes
    for a plan of ``links``, with scripted fault draws and zero jitter."""
    sim = Simulator()
    latency = Departures()
    plan = FaultPlan(links=links, retransmit=POLICY)
    network = build(sim, plan, latency)
    network._drop_rng = Script(drops)
    network._dup_rng = Script(dups)
    network._spike_rng = Script(spikes)
    network._jitter_rng = Script([0.0] * 4)
    network.register("a")
    network.register("b")
    network.send("a", "b", MessageKind.SUBTXN_REQUEST, "x")
    return sim, network, latency


def new(sim, plan, latency):
    return Network(sim, rngs=RngRegistry(1), latency=latency, faults=plan)


def tower(sim, plan, latency):
    return reference.build_network(sim, plan, rngs=RngRegistry(1),
                                   latency=latency)


def drain(links, **draws):
    """The new network's and the tower's departures, retransmits and
    scheduled callbacks, after each delivered the message exactly once."""
    runs = []
    for build in (new, tower):
        sim, network, latency = start(build, links, **draws)
        sim.run()
        assert [m.payload for m in network.mailbox("b").drain()] == ["x"]
        assert network.pending_unacked == 0
        runs.append({"departures": latency.log,
                     "retransmits": network.stats.retransmits,
                     "scheduled": sim.scheduled_count})
    return runs


def test_ack_before_the_deadline_arms_no_timer():
    """The copy lands at 1 and its ack at 2, before the deadline at 5:
    the first delivery ends the hold, and no timer is ever armed."""
    sim, network, _ = start(new, {("a", "b"): LinkFaults(drop=0.5)},
                            drops=[0.9])
    sim.run(until=1.5)
    # The hold ended at the first delivery, before the ack landed.
    assert network._pending == {}
    ours, old = drain({("a", "b"): LinkFaults(drop=0.5)}, drops=[0.9])
    assert ours["departures"] == old["departures"] == [(0.0, "a", "b"),
                                                       (1.0, "b", "a")]
    assert ours["retransmits"] == old["retransmits"] == 0
    # The delivery alone; the tower adds the timer and the ack delivery.
    assert (ours["scheduled"], old["scheduled"]) == (1, 3)


def test_ack_spiked_past_the_deadline_lets_the_retransmit_leave():
    """The ack spikes to land at 12, after the deadline at 5: the first
    delivery arms the timer, which retransmits at 5 as the tower's does.
    The stamp at 12 lands before the next deadline (15), so no second
    timer is armed; the tower's finds the message acked."""
    links = {("a", "b"): LinkFaults(drop=0.5),
             ("b", "a"): LinkFaults(spike_probability=0.5, spike_delay=10.0)}
    draws = dict(drops=[0.9, 0.9], spikes=[0.0, 0.0])
    ours, old = drain(links, **draws)
    assert ours["departures"] == old["departures"] == [
        (0.0, "a", "b"), (1.0, "b", "a"), (5.0, "a", "b"), (6.0, "b", "a")]
    assert ours["retransmits"] == old["retransmits"] == 1
    # Two deliveries and the one timer that fires; the tower adds the
    # second timer and both ack deliveries.
    assert (ours["scheduled"], old["scheduled"]) == (3, 6)


def test_ack_landing_on_the_deadline_retransmits():
    """The ack spikes to land at 5, exactly the deadline.  The tower's
    timer, armed at send, runs before that ack's delivery and
    retransmits; the stamp is not strictly earlier, so the new network
    retransmits at 5 too."""
    links = {("a", "b"): LinkFaults(drop=0.5),
             ("b", "a"): LinkFaults(spike_probability=0.5, spike_delay=3.0)}
    draws = dict(drops=[0.9, 0.9], spikes=[0.0, 0.9])
    ours, old = drain(links, **draws)
    assert ours["departures"] == old["departures"] == [
        (0.0, "a", "b"), (1.0, "b", "a"), (5.0, "a", "b"), (6.0, "b", "a")]
    assert ours["retransmits"] == old["retransmits"] == 1
    assert (ours["scheduled"], old["scheduled"]) == (3, 6)


def test_lost_first_ack_then_the_dup_copy_ack():
    """The copy and its dup both land at 1.  The first copy's ack is
    dropped, so its delivery arms the timer; the dup's ack lands at 2,
    and the timer at 5 lets the message go without a retransmit."""
    links = {("a", "b"): LinkFaults(dup=0.5),
             ("b", "a"): LinkFaults(drop=0.5)}
    draws = dict(dups=[0.0], drops=[0.0, 0.9])
    ours, old = drain(links, **draws)
    # The dropped ack takes no latency draw.
    assert ours["departures"] == old["departures"] == [
        (0.0, "a", "b"), (0.0, "a", "b"), (1.0, "b", "a")]
    assert ours["retransmits"] == old["retransmits"] == 0
    assert (ours["scheduled"], old["scheduled"]) == (3, 4)


def test_pending_unacked_mid_run():
    """Held messages whose ack has not landed by ``now``: the same count
    as the tower's while the timer is armed, and none once the dup's ack
    has landed, though the hold lasts until the timer runs at 5."""
    links = {("a", "b"): LinkFaults(dup=0.5),
             ("b", "a"): LinkFaults(drop=0.5)}
    draws = dict(dups=[0.0], drops=[0.0, 0.9])
    sim, network, _ = start(new, links, **draws)
    tower_sim, tower_network, _ = start(tower, links, **draws)
    for until, unacked, held in ((0.5, 1, 1), (1.5, 1, 1), (3.0, 0, 1),
                                 (6.0, 0, 0)):
        sim.run(until=until)
        tower_sim.run(until=until)
        assert network.pending_unacked == unacked
        assert tower_network.pending_unacked == unacked
        assert len(network._pending) == held
