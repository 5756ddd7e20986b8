"""The network tower the one :class:`repro.net.Network` replaced.

Kept verbatim, for tests only, as the reference the differential in
``tests/test_network_reference.py`` runs the new network against: the
base ``Network`` (with its ``_dispatch_send`` seam and ``fifo_links``
option), ``ReliableNetwork`` (acks, retransmission, dedup),
``FaultyNetwork`` (drop / spike / dup / partition cut) and
``ChaosNetwork``, which composed the two by MRO, plus ``build_network``,
which picked ``ChaosNetwork`` for lossy plans and ``FaultyNetwork``
otherwise.  The bare injector and the reliable layer without faults are
configurations no runtime caller builds; their tests run here.

Three helpers the tower called have since left ``src/``: the stats'
per-copy ``record`` lives on here as :func:`record`, the plan's
partition ``cut`` as the scan over every ``PartitionEvent.cuts`` that
defined it, and the plan's ``link`` lookup as its one line.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import SimulationError
from repro.faults.plan import FaultPlan, RetransmitPolicy
from repro.net.latency import LatencyModel, constant_latency
from repro.net.message import Message, MessageKind
from repro.net.network import NetworkStats
from repro.sim.distributions import RngRegistry
from repro.sim.resources import Store
from repro.sim.simulator import Simulator


def record(stats: NetworkStats, kind: str, latency: float) -> None:
    """Count one wired copy: what ``NetworkStats.record`` did before the
    one network came to add its copies to the stats cells inline."""
    try:
        cell = stats._by_kind[kind]
    except KeyError:
        stats._by_kind[kind] = [1, latency]
        return
    cell[0] += 1
    cell[1] += latency


class Network:
    """Message transport between named endpoints.

    Faults are injected by *subclassing*, never by monkey-patching: the
    reliable-delivery layer overrides :meth:`_dispatch_send` and the fault
    injector overrides :meth:`_transmit`.

    Args:
        sim: The owning simulator.
        rngs: RNG registry for latency sampling.
        latency: Latency model; defaults to a constant 1.0 time units.
        fifo_links: If ``True``, enforce per-``(src, dst)`` FIFO delivery by
            clamping each delivery time to be no earlier than the previous
            delivery on the same link.
        batch_delivery: If ``True``, coalesce all deliveries due at the
            same simulated time into one scheduled batch event (one heap
            entry, and one mailbox wake per destination, instead of N of
            each).  Within the tick messages deliver in transmission
            order — exactly the order the unbatched per-message callbacks
            would have run in, so anything triggered *by* a delivery
            (e.g. the reliable layer's acks) also keeps its order and its
            fault-RNG draw sequence.  Only the scheduled-callback trace
            differs, so determinism digests are comparable between runs
            with the same setting only (hence opt-in, default off).
    """

    def __init__(
        self,
        sim: Simulator,
        rngs: typing.Optional[RngRegistry] = None,
        latency: typing.Optional[LatencyModel] = None,
        fifo_links: bool = False,
        batch_delivery: bool = False,
    ):
        self.sim = sim
        self.rngs = rngs if rngs is not None else RngRegistry(0)
        self.latency = latency if latency is not None else constant_latency(1.0)
        self.latency.bind_clock(lambda: sim.now)
        self.fifo_links = fifo_links
        # bool() so the experiment layer's 0/1 integer parameter works.
        self.batch_delivery = bool(batch_delivery)
        self.stats = NetworkStats()
        self._mailboxes: typing.Dict[str, Store] = {}
        self._last_delivery: typing.Dict[typing.Tuple[str, str], float] = {}
        #: Open delivery batches, keyed by delivery tick (batch mode).
        self._batches: typing.Dict[float, list] = {}

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def register(self, endpoint: str) -> Store:
        """Create (or return) the mailbox for ``endpoint``."""
        if endpoint not in self._mailboxes:
            self._mailboxes[endpoint] = Store(self.sim)
        return self._mailboxes[endpoint]

    def mailbox(self, endpoint: str) -> Store:
        """Return the mailbox of a registered endpoint."""
        try:
            return self._mailboxes[endpoint]
        except KeyError:
            raise SimulationError(f"unknown endpoint: {endpoint!r}") from None

    @property
    def endpoints(self) -> typing.List[str]:
        return list(self._mailboxes)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, src: str, dst: str, kind: str, payload=None) -> Message:
        """Send a message; returns the in-flight envelope.

        Sending never blocks the caller: the message is queued for delivery
        after a sampled latency.  This is the mechanism behind the paper's
        requirement that all inter-node communication is asynchronous with
        user transactions.
        """
        if dst not in self._mailboxes:
            raise SimulationError(f"send to unknown endpoint: {dst!r}")
        message = Message(src=src, dst=dst, kind=kind, payload=payload,
                          sent_at=self.sim.now)
        self._dispatch_send(message)
        return message

    def _dispatch_send(self, message: Message) -> None:
        """Hand a freshly built envelope to the transmission path.

        The reliable-delivery layer overrides this to register the message
        for retransmission before the (possibly lossy) first transmission.
        """
        self._transmit(message)

    def _transmit(self, message: Message, extra_delay: float = 0.0) -> None:
        """Put one physical copy of ``message`` on the wire.

        Samples the link latency, applies FIFO clamping, records stats, and
        schedules delivery.  The fault injector overrides this to drop,
        duplicate, or delay individual copies; retransmissions re-enter
        here, so each copy draws a fresh latency.
        """
        sim = self.sim
        now = sim.now
        delay = self.latency.delay(message.src, message.dst, self.rngs)
        if delay < 0:
            raise SimulationError(f"latency model returned negative delay: {delay}")
        delay += extra_delay
        if self.fifo_links:
            link = (message.src, message.dst)
            deliver_at = max(now + delay, self._last_delivery.get(link, 0.0))
            self._last_delivery[link] = deliver_at
            delay = deliver_at - now
        record(self.stats, message.kind, delay)
        self._schedule_delivery(message, delay)

    def _schedule_delivery(self, message: Message, delay: float) -> None:
        """Schedule one already-faulted, already-recorded physical copy.

        Sits *below* the fault injector's ``_transmit`` override: drops,
        spikes, and duplications have all happened by the time a copy
        reaches here, so batching cannot perturb per-message fault draws.
        In batch mode all copies due at the same tick share one scheduled
        callback and deliver in transmission order — the exact order
        separate same-tick callbacks would have run them in.  Keying by
        tick alone (not per destination) matters for fault equivalence:
        anything a delivery *triggers* (the reliable layer transmits an
        ack per data copy) happens in the same global order as unbatched,
        so the fault injector's RNG streams are consumed identically.
        """
        sim = self.sim
        if not self.batch_delivery:
            sim.schedule(delay, self._deliver, message)
            return
        key = sim.now + delay
        batch = self._batches.get(key)
        if batch is not None:
            batch.append(message)
            self.stats.batched_messages += 1
            return
        self._batches[key] = [message]
        self.stats.batches += 1
        sim.schedule_at(key, self._deliver_batch, key)

    def _deliver_batch(self, key: float) -> None:
        # Delivery goes through _deliver per message, preserving the
        # reliable layer's per-copy ack/dedup override.
        for message in self._batches.pop(key):
            self._deliver(message)

    def _deliver(self, message: Message) -> None:
        message.delivered_at = self.sim.now
        self._mailboxes[message.dst].put(message)

    def broadcast(self, src: str, kind: str, payload=None,
                  include_self: bool = True) -> typing.List[Message]:
        """Send the same message to every registered endpoint."""
        return [
            self.send(src, dst, kind, payload)
            for dst in self._mailboxes
            if include_self or dst != src
        ]

    def broadcast_to(self, src: str, dsts: typing.Iterable[str], kind: str,
                     payload=None) -> typing.List[Message]:
        """Send the same message to an explicit list of endpoints."""
        return [self.send(src, dst, kind, payload) for dst in dsts]


class ReliableNetwork(Network):
    """A :class:`Network` with per-message acks, retransmission, and dedup.

    Composes with the fault injector by overriding the two seams the base
    class exposes: :meth:`_dispatch_send` (register for retransmission
    before the possibly-lossy first transmission) and :meth:`_deliver`
    (consume acks, ack + dedup data frames).
    """

    def __init__(self, sim, policy: typing.Optional[RetransmitPolicy] = None,
                 **kwargs):
        super().__init__(sim, **kwargs)
        self.policy = policy if policy is not None else RetransmitPolicy()
        #: In-flight (unacked) messages by id.
        self._pending: typing.Dict[int, Message] = {}
        #: Per-destination set of message ids already delivered.
        self._seen: typing.Dict[str, typing.Set[int]] = {}
        self._jitter_rng = self.rngs.stream("net.retransmit")

    @property
    def pending_unacked(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------

    def _dispatch_send(self, message: Message) -> None:
        self._pending[message.message_id] = message
        self._transmit(message)
        self._arm_timer(message, self.policy.timeout)

    def _arm_timer(self, message: Message, interval: float) -> None:
        jitter = self._jitter_rng.random() * self.policy.jitter
        self.sim.schedule(
            interval + jitter, self._maybe_retransmit, message, interval
        )

    def _maybe_retransmit(self, message: Message, interval: float) -> None:
        if message.message_id not in self._pending:
            return  # acked in the meantime; the timer dies quietly
        self.stats.retransmits += 1
        # A fresh envelope per physical copy: the original may be sitting
        # in the delivery heap (merely slow, not lost), and delivery
        # mutates the envelope's delivered_at.
        self._transmit(dataclasses.replace(message, delivered_at=None))
        self._arm_timer(
            message, min(interval * self.policy.backoff,
                         self.policy.max_interval)
        )

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------

    def _deliver(self, message: Message) -> None:
        if message.kind is MessageKind.NET_ACK:
            # payload = the acked data message's id.  Duplicate/stale acks
            # are no-ops.
            self._pending.pop(message.payload, None)
            return
        # Ack every copy received — a dropped ack leaves the sender
        # retransmitting, and only the next ack can stop it.
        self._transmit(
            Message(
                src=message.dst, dst=message.src, kind=MessageKind.NET_ACK,
                payload=message.message_id, sent_at=self.sim.now,
            )
        )
        seen = self._seen.setdefault(message.dst, set())
        if message.message_id in seen:
            self.stats.dup_suppressed += 1
            return
        seen.add(message.message_id)
        super()._deliver(message)


class FaultyNetwork(Network):
    """A network that loses, duplicates, and delays individual copies.

    On its own (without the reliable layer) a dropped message is gone
    forever — exactly what the reliable-delivery property tests need.  Use
    :func:`build_network` to get the composition a real run wants.
    """

    def __init__(self, sim, plan: FaultPlan, **kwargs):
        super().__init__(sim, **kwargs)
        self.plan = plan
        registry = plan.rng_registry()
        self._drop_rng = registry.stream("faults.drop")
        self._dup_rng = registry.stream("faults.dup")
        self._spike_rng = registry.stream("faults.spike")
        self._partitions = plan.partitions

    def _transmit(self, message: Message, extra_delay: float = 0.0) -> None:
        # Partitions cut the wire before any probabilistic draw: the check
        # is a pure function of (src, dst, now), so a partition-free plan
        # draws exactly what it drew before partitions existed, and a
        # zero-fault plan still draws nothing at all.
        if self._partitions and any(
            partition.cuts(message.src, message.dst, self.sim.now)
            for partition in self._partitions
        ):
            self.stats.partition_dropped += 1
            return
        faults = self.plan.links.get((message.src, message.dst),
                                     self.plan.default_link)
        if not faults.active:
            super()._transmit(message, extra_delay)
            return
        # Fixed draw order per copy — drop, spike, dup — so the fault
        # schedule is a pure function of the fault seed and the sequence
        # of transmissions.
        if faults.drop and self._drop_rng.random() < faults.drop:
            self.stats.dropped += 1
            return
        if (faults.spike_probability
                and self._spike_rng.random() < faults.spike_probability):
            extra_delay += faults.spike_delay
        super()._transmit(message, extra_delay)
        if faults.dup and self._dup_rng.random() < faults.dup:
            self.stats.duplicated += 1
            # Same message_id on purpose: the duplicate must be
            # recognizable to receiver-side dedup.  A fresh envelope keeps
            # the two deliveries from fighting over delivered_at.
            super()._transmit(
                dataclasses.replace(message, delivered_at=None), extra_delay
            )


class ChaosNetwork(ReliableNetwork, FaultyNetwork):
    """Lossy links underneath, exactly-once delivery on top.

    MRO does the composition: ``ReliableNetwork._dispatch_send`` registers
    the message and arms the retransmit timer; every physical copy (first
    send, retransmit, ack) then flows through
    ``FaultyNetwork._transmit``'s drop/spike/dup gauntlet before the base
    network schedules delivery.
    """


def build_network(sim, plan: FaultPlan, **kwargs) -> Network:
    """The right network for a plan.

    Lossy plans (any drop or duplication, or any partition — a copy cut
    mid-partition must be retransmitted after the heal) need the reliable
    layer to restore the exactly-once contract the protocols assume;
    drop-free plans use the bare injector, which adds no ack/timer
    traffic — so a zero-fault plan stays event-for-event identical to the
    seed path.
    """
    if plan.lossy:
        return ChaosNetwork(sim, plan=plan, policy=plan.retransmit, **kwargs)
    return FaultyNetwork(sim, plan=plan, **kwargs)
