"""The simulated message network.

The network owns one mailbox (:class:`~repro.sim.resources.Store`) per
registered endpoint and delivers messages after a latency sampled from the
configured :class:`~repro.net.latency.LatencyModel`.  Delivery is
*non-FIFO* by default — two messages on the same link may arrive out of
order whenever the latency distribution has variance — because the 3V
protocol is explicitly designed for that regime (a subtransaction can
overtake the start-advancement notice, Table 1 time 19).  Per-link FIFO can
be enabled for protocols that assume ordered channels.
"""

from __future__ import annotations

import typing

from repro.errors import SimulationError
from repro.net.latency import LatencyModel, constant_latency
from repro.net.message import Message, MessageKind
from repro.sim.distributions import RngRegistry
from repro.sim.resources import Store
from repro.sim.simulator import Simulator

__all__ = ["Network", "NetworkStats"]


class NetworkStats:
    """Aggregate traffic accounting, split by message kind.

    Internally one dict of ``kind -> [count, total_latency]`` cells, so the
    per-send :meth:`record` call (made for every message in the system) is a
    single lookup and two in-place adds.  The ``sent_by_kind`` /
    ``total_latency_by_kind`` views are materialized on access.

    The four plain-int fault counters stay zero on a fault-free network;
    they are bumped by the reliable-delivery layer
    (:mod:`repro.net.reliable`) and the fault injector
    (:mod:`repro.faults`).
    """

    __slots__ = ("_by_kind", "retransmits", "dup_suppressed", "dropped",
                 "duplicated", "batches", "batched_messages",
                 "partition_dropped", "stale_epoch_dropped")

    def __init__(self):
        self._by_kind: typing.Dict[str, typing.List[float]] = {}
        #: Retransmissions sent by the reliable-delivery layer.
        self.retransmits = 0
        #: Duplicate deliveries suppressed by receiver-side dedup.
        self.dup_suppressed = 0
        #: Transmissions dropped by the fault injector.
        self.dropped = 0
        #: Extra copies injected by the fault injector.
        self.duplicated = 0
        #: Copies cut by an active network partition (fault injector).
        self.partition_dropped = 0
        #: Advancement messages fenced for carrying a dead coordinator
        #: incarnation's epoch (bumped by the 3V control plane).
        self.stale_epoch_dropped = 0
        #: Batch delivery events scheduled, one per distinct delivery
        #: tick (``batch_delivery`` mode only).
        self.batches = 0
        #: Messages that rode along in an already-scheduled batch.
        self.batched_messages = 0

    def record(self, kind: str, latency: float) -> None:
        try:
            cell = self._by_kind[kind]
        except KeyError:
            self._by_kind[kind] = [1, latency]
            return
        cell[0] += 1
        cell[1] += latency

    @property
    def sent_by_kind(self) -> typing.Dict[str, int]:
        """``{kind: number of messages sent}`` (materialized copy)."""
        return {kind: cell[0] for kind, cell in self._by_kind.items()}

    @property
    def total_latency_by_kind(self) -> typing.Dict[str, float]:
        """``{kind: summed delivery latency}`` (materialized copy)."""
        return {kind: cell[1] for kind, cell in self._by_kind.items()}

    @property
    def total_sent(self) -> int:
        return sum(cell[0] for cell in self._by_kind.values())

    @property
    def user_messages(self) -> int:
        """Messages carrying user-transaction work."""
        return sum(
            cell[0]
            for kind, cell in self._by_kind.items()
            if kind in MessageKind.USER_KINDS
        )

    @property
    def control_messages(self) -> int:
        """Version-advancement control messages."""
        return sum(
            cell[0]
            for kind, cell in self._by_kind.items()
            if kind in MessageKind.CONTROL_KINDS
        )

    @property
    def commit_messages(self) -> int:
        """Locking / two-phase-commit messages (NC3V and 2PC baseline)."""
        return sum(
            cell[0]
            for kind, cell in self._by_kind.items()
            if kind in MessageKind.COMMIT_KINDS
        )


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
        self.stats.record(message.kind, delay)
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
