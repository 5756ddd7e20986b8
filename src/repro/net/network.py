"""The simulated message network, its fault stages and reliable delivery.

The network owns one mailbox (:class:`~repro.sim.resources.Store`) per
registered endpoint and delivers messages after a latency sampled from the
configured :class:`~repro.net.latency.LatencyModel`.  Delivery is
*non-FIFO* — two messages on the same link may arrive out of order
whenever the latency distribution has variance — because the 3V protocol
is explicitly designed for that regime (a subtransaction can overtake the
start-advancement notice, Table 1 time 19).

A fault plan (:class:`repro.faults.FaultPlan`, read duck-typed: this
package never imports ``repro.faults``) adds per-copy fault stages, with
draws from the plan's own RNG registry.  A lossy plan also turns on the
standard at-least-once-plus-dedup discipline that restores the
exactly-once channel the protocols assume: the sender holds each message
until a transport-level ``NET_ACK`` for its id comes back, retransmitting
on a capped exponential-backoff timer with jitter from the workload
registry's ``net.retransmit`` stream; the receiver acks every copy but
delivers each id at most once.  Acks are pure transport frames: never
acked, retransmitted, mailboxed or counted in a user/control/commit
bucket.  Retransmission never gives up; ``run_until_quiet(limit=...)``
bounds the drain.

An ack is an arrival stamp, not a delivery event.  It runs every fault
stage, takes its latency draw and is counted like any copy, but what
survives only records its arrival time on the held message (batch mode
still books it a tick, whose delivery does nothing).  A retransmit timer
is armed only when it can fire: the sender knows each copy's fate when it
sends, so while a copy lands before the deadline the timer waits for that
copy's delivery, whose ack decides.  An ack landing strictly before the
deadline ends the message's hold and no timer exists; otherwise the timer
is armed for the very deadline the jitter drew, so every retransmit
leaves when and in the order it would if every timer were armed and
every ack delivered.  A timer that finds an earlier stamp lets the
message go; on a tie it retransmits, as a timer armed before the ack was
sent would.

Every physical copy (a first send, a retransmit, a dup, an ack) costs
one short call chain: ``send`` builds the envelope (its id is a
module-level int, taken with no call) and, on a faulted network, calls
:meth:`Network._transmit`, whose fault stages read link tuples and
partition windows laid out when the network was built;
:meth:`Network._wire` makes one draw through the latency model's bound
:meth:`~repro.net.latency.LatencyModel.sampler`, adds the copy to its
stats cell in place and schedules the delivery (:meth:`Network._land`,
for an ack, returns its arrival instead).  :meth:`Network._deliver`
ends in the mailbox hand-over itself, with no
:meth:`~repro.sim.resources.Store.put` between.  ``_wire`` is not
folded into ``send``: the fault stages, retransmits and dups wire their
copies through it, so that would take a second copy of its steps.
``tests/test_net_call_budget.py`` holds the chain's profiled calls per
copy and scheduled callbacks per reliable send.
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

#: The arrival of a copy that never lands (cut or dropped), and the stamp
#: of a held message no ack has reached yet: later than any deadline.
_NEVER = float("inf")


class NetworkStats:
    """Aggregate traffic accounting, split by message kind.

    Internally one dict of ``kind -> [count, total_latency]`` cells, which
    :class:`Network` adds every wired copy to in place: a single lookup
    and two in-place adds.  The ``sent_by_kind`` /
    ``total_latency_by_kind`` views are materialized on access.

    The plain-int fault counters stay zero on a fault-free network; the
    fault stages and reliable delivery of :class:`Network` bump them.
    """

    #: Run counters: summary field -> attribute (``System.counters``).
    COUNTERS = {
        "messages_total": "total_sent", "messages_user": "user_messages",
        "messages_control": "control_messages",
        "retransmits": "retransmits", "dup_suppressed": "dup_suppressed",
        "messages_dropped": "dropped", "messages_duplicated": "duplicated",
        "delivery_batches": "batches", "batched_messages": "batched_messages",
        "partitions_cut": "partition_dropped",
        "stale_epochs_fenced": "stale_epoch_dropped",
    }

    __slots__ = ("_by_kind", "retransmits", "dup_suppressed", "dropped",
                 "duplicated", "batches", "batched_messages",
                 "partition_dropped", "stale_epoch_dropped")

    def __init__(self):
        self._by_kind: typing.Dict[str, typing.List[float]] = {}
        #: Retransmissions sent by reliable delivery.
        self.retransmits = 0
        #: Duplicate deliveries suppressed by receiver-side dedup.
        self.dup_suppressed = 0
        #: Transmissions dropped by the drop stage.
        self.dropped = 0
        #: Extra copies injected by the dup stage.
        self.duplicated = 0
        #: Copies cut by an active network partition.
        self.partition_dropped = 0
        #: Advancement messages fenced for carrying a dead coordinator
        #: incarnation's epoch (bumped by the 3V control plane).
        self.stale_epoch_dropped = 0
        #: Batch delivery events scheduled, one per distinct delivery
        #: tick (``batch_delivery`` mode only).
        self.batches = 0
        #: Messages that rode along in an already-scheduled batch.
        self.batched_messages = 0

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

    def _sent_of(self, kinds: typing.AbstractSet[str]) -> int:
        return sum(cell[0] for kind, cell in self._by_kind.items()
                   if kind in kinds)

    @property
    def user_messages(self) -> int:
        """Messages carrying user-transaction work."""
        return self._sent_of(MessageKind.USER_KINDS)

    @property
    def control_messages(self) -> int:
        """Version-advancement control messages."""
        return self._sent_of(MessageKind.CONTROL_KINDS)

    @property
    def commit_messages(self) -> int:
        """Locking / two-phase-commit messages (NC3V and 2PC baseline)."""
        return self._sent_of(MessageKind.COMMIT_KINDS)


class Network:
    """Message transport between named endpoints.

    One :meth:`_transmit` puts every physical copy of a faulted network
    on the wire, running the plan's stages in the fixed order partition
    cut → drop → delay spike → wire → dup; a fault-free network sends
    straight to :meth:`_wire`.  A cut or dropped copy draws nothing
    further; the dup copy goes straight to the wire with the original's
    spike, through no second cut and no second draw.  Acks and
    retransmissions pass through every stage.  When delivery is reliable,
    one :meth:`_deliver` acks and de-duplicates every data copy, and the
    ack's arrival is stamped on the held message as it is wired.

    Args:
        sim: The owning simulator.
        rngs: RNG registry for latency sampling and retransmit jitter.
        latency: Latency model; defaults to a constant 1.0 time units.
        batch_delivery: If ``True``, coalesce all deliveries due at the
            same simulated time into one scheduled batch event (one heap
            entry, and one mailbox wake per destination, instead of N of
            each).  Within the tick messages deliver in transmission
            order — exactly the order the unbatched per-message callbacks
            would have run in, so anything triggered *by* a delivery
            (e.g. reliable delivery's acks) also keeps its order and its
            fault-RNG draw sequence.  Only the scheduled-callback trace
            differs, so determinism digests are comparable between runs
            with the same setting only (hence opt-in, default off).
        faults: Optional fault plan (duck-typed
            :class:`repro.faults.FaultPlan`).  An ``active`` plan sets up
            the fault stages; a ``lossy`` one also turns on reliable
            delivery with its ``retransmit`` policy.  A zero-fault plan
            sets up nothing, arms no timer and draws nothing.
    """

    def __init__(
        self,
        sim: Simulator,
        rngs: typing.Optional[RngRegistry] = None,
        latency: typing.Optional[LatencyModel] = None,
        batch_delivery: bool = False,
        faults=None,
    ):
        self.sim = sim
        self.rngs = rngs if rngs is not None else RngRegistry(0)
        self.latency = latency if latency is not None else constant_latency(1.0)
        self.latency.bind_clock(lambda: sim.now)
        self._draw = self.latency.sampler(self.rngs)
        # bool() so the experiment layer's 0/1 integer parameter works.
        self.batch_delivery = bool(batch_delivery)
        self.stats = NetworkStats()
        #: ``kind -> [count, total_latency]``: the stats cells each wired
        #: copy adds to.
        self._sent = self.stats._by_kind
        self._mailboxes: typing.Dict[str, Store] = {}
        #: Open delivery batches, keyed by delivery tick (batch mode).
        self._batches: typing.Dict[float, list] = {}
        #: The plan, kept only when some copy can be cut or faulted.
        self.faults = None
        #: Messages held for retransmission, by id, each as ``[message,
        #: stamp, interval, deadline]``: the earliest arrival of any of its
        #: acks (``_NEVER`` until one survives the fault stages), its
        #: current backoff interval, and the deadline of a timer not yet
        #: armed (``None`` once armed).  The wired copies of each data
        #: message not yet delivered, by id.  And the ids already
        #: delivered that another copy can still reach: held, or with a
        #: copy in flight (ids are unique across destinations; a dict, so
        #: adding and forgetting one is no call).  All ``None`` unless
        #: reliable.
        self._pending: typing.Optional[typing.Dict[int, list]] = None
        self._in_flight: typing.Optional[typing.Dict[int, int]] = None
        self._seen: typing.Optional[typing.Dict[int, None]] = None
        if faults is not None and faults.active:
            self.faults = faults
            registry = faults.rng_registry()
            self._drop_rng = registry.stream("faults.drop")
            self._dup_rng = registry.stream("faults.dup")
            self._spike_rng = registry.stream("faults.spike")
            #: ``(opens, heals, partition)`` per partition: a copy sent
            #: while no window is open costs two comparisons per window.
            self._windows = tuple((p.at, p.heal_at, p)
                                  for p in faults.partitions)
            self._default_link = _link_fields(faults.default_link)
            self._links = {pair: _link_fields(link)
                           for pair, link in faults.links.items()}
        if faults is not None and faults.lossy:
            self.policy = faults.retransmit
            self._pending = {}
            self._in_flight = {}
            self._seen = {}
            self._jitter_rng = self.rngs.stream("net.retransmit")

    @property
    def pending_unacked(self) -> int:
        """Held messages whose ack has not landed by ``now`` (always 0
        unless reliable).

        A held message whose ack has landed but whose timer has not yet
        run is not counted.  Neither is one already let go because its
        ack lands before any retransmit could leave.
        """
        now = self.sim.now
        return sum(1 for held in (self._pending or {}).values()
                   if held[1] > now)

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

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, src: str, dst: str, kind: str, payload=None) -> Message:
        """Send a message; returns the in-flight envelope.

        Sending never blocks the caller: the message is queued for delivery
        after a sampled latency.  This is the mechanism behind the paper's
        requirement that all inter-node communication is asynchronous with
        user transactions.  Under reliable delivery the message is held
        for retransmission after its (possibly lost) first copy leaves,
        and its first retransmit deadline is drawn.
        """
        if dst not in self._mailboxes:
            raise SimulationError(f"send to unknown endpoint: {dst!r}")
        sim = self.sim
        message = Message(src, dst, kind, payload, sim.now)
        if self.faults is None:
            self._wire(message, 0.0)
            return message
        pending = self._pending
        if pending is None:
            self._transmit(message, self._wire)
            return message
        stats = self.stats
        duplicated = stats.duplicated
        arrival = self._transmit(message, self._wire)
        if arrival < _NEVER:
            self._in_flight[message.message_id] = (
                1 + stats.duplicated - duplicated)
        timeout = self.policy.timeout
        jitter = self._jitter_rng.random() * self.policy.jitter
        held = pending[message.message_id] = [message, _NEVER, timeout, None]
        self._time_retransmit(held, sim.now + (timeout + jitter), arrival)
        return message

    def broadcast_to(self, src: str, dsts: typing.Iterable[str], kind: str,
                     payload=None) -> typing.List[Message]:
        """Send the same message to an explicit list of endpoints."""
        return [self.send(src, dst, kind, payload) for dst in dsts]

    def _transmit(self, message: Message, wire) -> float:
        """Run one physical copy through the plan's fault stages; return
        when its first copy lands (``_NEVER`` if cut or dropped).

        ``wire`` puts a surviving copy on the wire: :meth:`_wire`, or
        :meth:`_land` for an ack.  Partitions cut before any draw: the
        check is a pure function of ``(src, dst, now)``, so a
        partition-free plan draws exactly what it would without
        partitions.  A link whose faults are all zero draws nothing.
        Otherwise the draws per copy are drop, spike, dup, each only when
        the link has that fault.
        """
        src = message.src
        dst = message.dst
        if self._windows:
            now = self.sim.now
            for opens, heals, partition in self._windows:
                if opens <= now < heals and partition.cuts(src, dst, now):
                    self.stats.partition_dropped += 1
                    return _NEVER
        link = (self._links.get((src, dst), self._default_link)
                if self._links else self._default_link)
        if link is None:
            return wire(message, 0.0)
        drop, spike_probability, spike_delay, dup = link
        if drop and self._drop_rng.random() < drop:
            self.stats.dropped += 1
            return _NEVER
        extra_delay = 0.0
        if spike_probability and self._spike_rng.random() < spike_probability:
            extra_delay = spike_delay
        arrival = wire(message, extra_delay)
        if dup and self._dup_rng.random() < dup:
            self.stats.duplicated += 1
            copy_arrival = wire(message.copy(), extra_delay)
            if copy_arrival < arrival:
                return copy_arrival
        return arrival

    def _wire(self, message: Message, extra_delay: float) -> float:
        """Sample a latency for one copy, count it, schedule delivery;
        return the delivery time.

        Sits below every fault stage, so batching cannot perturb the
        per-copy fault draws.  In batch mode all copies due at the same
        tick share one scheduled callback and deliver in transmission
        order — the exact order separate same-tick callbacks would have
        run them in.  Keying by tick alone (not per destination) matters:
        anything a delivery *triggers* (an ack per data copy) happens in
        the same global order as unbatched, so the fault RNG streams are
        consumed identically.
        """
        delay = self._draw(message.src, message.dst)
        if delay < 0:
            raise SimulationError(f"latency model returned negative delay: {delay}")
        delay += extra_delay
        try:
            cell = self._sent[message.kind]
        except KeyError:
            self._sent[message.kind] = [1, delay]
        else:
            cell[0] += 1
            cell[1] += delay
        sim = self.sim
        key = sim.now + delay
        if not self.batch_delivery:
            sim.schedule_at(key, self._deliver, message)
            return key
        batch = self._batches.get(key)
        if batch is not None:
            batch.append(message)
            self.stats.batched_messages += 1
            return key
        self._batches[key] = [message]
        self.stats.batches += 1
        sim.schedule_at(key, self._deliver_batch, key)
        return key

    def _land(self, ack: Message, extra_delay: float) -> float:
        """:meth:`_wire` for an ack copy, which is delivered as a stamp:
        draw and count it, and return when it lands.

        Unbatched, nothing is scheduled.  In batch mode the ack still
        books its tick, so batch counts and same-tick order hold; its
        delivery does nothing.
        """
        if self.batch_delivery:
            return self._wire(ack, extra_delay)
        delay = self._draw(ack.src, ack.dst)
        if delay < 0:
            raise SimulationError(f"latency model returned negative delay: {delay}")
        delay += extra_delay
        try:
            cell = self._sent[ack.kind]
        except KeyError:
            self._sent[ack.kind] = [1, delay]
        else:
            cell[0] += 1
            cell[1] += delay
        return self.sim.now + delay

    def _time_retransmit(self, held: list, deadline: float,
                         arrival: float) -> None:
        """Arm ``held``'s retransmit timer for ``deadline`` only if it can
        fire.

        An ack stamped strictly before the deadline ends the hold.  A copy
        landing before it (at ``arrival``) defers the choice to the first
        delivery of any copy, whose ack is stamped by then.  Otherwise the
        timer is armed now.
        """
        if held[1] < deadline:
            self._release(held[0].message_id)
        elif arrival < deadline:
            held[3] = deadline
        else:
            held[3] = None
            self.sim.schedule_at(deadline, self._maybe_retransmit, held)

    def _maybe_retransmit(self, held: list) -> None:
        message, stamp, interval, _ = held
        sim = self.sim
        if stamp < sim.now:
            # An ack stamped after the timer was armed landed first.
            self._release(message.message_id)
            return
        stats = self.stats
        stats.retransmits += 1
        # A fresh envelope per physical copy: the original may be sitting
        # in the delivery heap (merely slow, not lost), and delivery
        # mutates the envelope's delivered_at.
        duplicated = stats.duplicated
        arrival = self._transmit(message.copy(), self._wire)
        if arrival < _NEVER:
            copies = 1 + stats.duplicated - duplicated
            in_flight = self._in_flight
            message_id = message.message_id
            if message_id in in_flight:
                in_flight[message_id] += copies
            else:
                in_flight[message_id] = copies
        policy = self.policy
        interval = held[2] = min(interval * policy.backoff,
                                 policy.max_interval)
        jitter = self._jitter_rng.random() * policy.jitter
        self._time_retransmit(held, sim.now + (interval + jitter), arrival)

    def _release(self, message_id: int) -> None:
        """End a hold: no retransmission of the message will leave, so
        once no copy is in flight, none can reach its destination again."""
        del self._pending[message_id]
        if message_id not in self._in_flight:
            del self._seen[message_id]

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def _deliver_batch(self, key: float) -> None:
        for message in self._batches.pop(key):
            self._deliver(message)

    def _deliver(self, message: Message) -> None:
        seen = self._seen
        if seen is not None:
            if message.kind is MessageKind.NET_ACK:
                return  # stamped on its held message when wired
            # Ack every copy received — a dropped ack leaves the sender
            # retransmitting, and only the next ack can stop it.
            message_id = message.message_id
            stamp = self._transmit(Message(message.dst, message.src,
                                           MessageKind.NET_ACK, message_id,
                                           self.sim.now), self._land)
            pending = self._pending
            if message_id in pending:
                held = pending[message_id]
                if stamp < held[1]:
                    held[1] = stamp
                if held[3] is not None:
                    # Ends the hold at the latest, keeping this copy's id:
                    # the copy is still counted in flight.
                    self._time_retransmit(held, held[3], _NEVER)
            in_flight = self._in_flight
            copies = in_flight[message_id] - 1
            if copies:
                in_flight[message_id] = copies
            else:
                del in_flight[message_id]
            # Another copy can follow while one is in flight or the
            # message is held; after the last one, the id is forgotten.
            last = not copies and message_id not in pending
            if message_id in seen:
                self.stats.dup_suppressed += 1
                if last:
                    del seen[message_id]
                return
            if not last:
                seen[message_id] = None
        message.delivered_at = self.sim.now
        # Store.put without the call (keep the two in step): count the
        # item, then hand it to the consumer unless the mailbox is frozen,
        # backlogged or has none.
        mailbox = self._mailboxes[message.dst]
        mailbox.total_puts += 1
        if mailbox._consumer is None or mailbox._frozen or mailbox._items:
            mailbox._items.append(message)
        else:
            mailbox._consumer(message)


def _link_fields(link) -> typing.Optional[typing.Tuple[float, float, float, float]]:
    """One link's ``(drop, spike_probability, spike_delay, dup)``, or
    ``None`` for a link with no fault to draw."""
    if not link.active:
        return None
    return (link.drop, link.spike_probability, link.spike_delay, link.dup)
