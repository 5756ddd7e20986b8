"""Recovery-readability: the refresh protocol for recovered replicas.

A replica that crashes and recovers keeps its durable store as the
crash left it, so it holds exactly its *pre-crash* state — but
write-all-available fan-out kept committing while it was down, skipping
the unavailable copy.  Until those missed writes are transferred back,
the replica is **unreadable**: readers are routed to (or gated until) a
refreshed copy.  The state
machine per node is::

    READABLE --crash--> DOWN --recover--> UNREFRESHED --refresh--> READABLE

The transfer ships *operations*, not store chains.  Every subtransaction
whose dispatch to an unavailable replica was skipped is recorded in a
:class:`MissedOpLedger` at dispatch time, as one :class:`MissedSubtxn`
holding its write ops (the sender is the one that knows it skipped);
refresh pops the recovering node's ledger section via a
``REFRESH_REQUEST`` / ``REFRESH_REPLY`` round trip through a live peer
and re-applies each operation at its subtransaction's version with the
store's dual-write ``write`` — or at the chain's lowest live version, if
garbage collection moved the chain past that version while the replica
was down.  Because the paper's updates commute, op-shipping needs no
synchronisation with the writes that keep flowing during the refresh —
whereas copying a peer's MVStore chains wholesale would lose any write
applied locally but still in flight to the peer at snapshot time.  The
recovering node drains its own ledger section once more when the reply
arrives, atomically with becoming readable, so nothing skipped during
the round trip is lost.

Epochs guard against a node crashing *again* mid-refresh: every recovery
bumps the node's epoch, and a reply carrying a stale epoch still applies
its (already popped) operations but does not mark the node readable — the
newer recovery's own refresh cycle owns that transition.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import SimulationError
from repro.net.message import MessageKind
from repro.sim.events import Event


@dataclasses.dataclass(slots=True)
class MissedSubtxn:
    """One subtransaction whose dispatch to an unavailable replica was
    skipped.

    Attributes:
        txn: Transaction name (compensation bookkeeping key).
        sid: Subtransaction id whose dispatch was skipped.
        version: Version its writes would have been applied at.
        ops: Its write ops, in order; each names a ``key`` and the
            commuting ``operation`` object itself.
        compensable: Whether the transaction can abort (and so send a
            compensator the refreshed node must recognise).
    """

    txn: str
    sid: str
    version: int
    ops: typing.Sequence[typing.Any]
    compensable: bool


class MissedOpLedger:
    """Per-node log of subtransactions skipped while the node was
    unavailable, in skip order.

    Keyed by ``(txn, sid)`` so a compensation that overtakes a skipped
    original can cancel the whole entry (the pair annihilates: neither
    the original nor its inverse should ever be applied).
    """

    def __init__(self):
        self._pending: typing.Dict[
            str, typing.Dict[typing.Tuple[str, str], MissedSubtxn]
        ] = {}

    def record(self, node_id: str, entry: MissedSubtxn) -> None:
        try:
            section = self._pending[node_id]
        except KeyError:
            section = self._pending[node_id] = {}
        key = entry.txn, entry.sid
        if key in section:
            raise SimulationError(
                f"subtransaction {entry.sid!r} of {entry.txn!r} skipped "
                f"twice for {node_id!r}"
            )
        section[key] = entry

    def cancel(self, node_id: str, txn: str, sid: str) -> int:
        """Drop a skipped subtransaction's entry; returns ops removed."""
        section = self._pending.get(node_id)
        if not section:
            return 0
        dropped = section.pop((txn, sid), None)
        return len(dropped.ops) if dropped else 0

    def pop(self, node_id: str) -> typing.List[MissedSubtxn]:
        """Remove and return the node's entire section, in skip order."""
        section = self._pending.pop(node_id, None)
        if not section:
            return []
        return list(section.values())

    def pending_ops(self, node_id: str) -> int:
        section = self._pending.get(node_id)
        if not section:
            return 0
        return sum(len(entry.ops) for entry in section.values())


class RefreshProtocol:
    """Drives the DOWN -> UNREFRESHED -> READABLE transitions."""

    #: Run counters: summary field -> attribute (``System.counters``).
    COUNTERS = {name: name for name in (
        "refresh_ops_applied", "refreshes_completed", "self_refreshes")}

    def __init__(self, ledger: MissedOpLedger, refresh_delay: float):
        self.ledger = ledger
        self.refresh_delay = refresh_delay
        self.system = None
        #: Recovered nodes that have not completed a refresh yet.
        self.unrefreshed: typing.Set[str] = set()
        #: Per-node recovery epoch (bumped on every recovery).
        self.epochs: typing.Dict[str, int] = {}
        self._gates: typing.Dict[str, Event] = {}
        self.refreshes_completed = 0
        self.self_refreshes = 0
        self.refresh_ops_applied = 0

    def bind(self, system) -> None:
        self.system = system

    # ------------------------------------------------------------------
    # Readability
    # ------------------------------------------------------------------

    def readable(self, node_id: str) -> bool:
        """Up and refreshed: allowed to serve reads / act as a source."""
        return (node_id not in self.system.down_nodes
                and node_id not in self.unrefreshed)

    def read_gate(self, node_id: str) -> typing.Optional[Event]:
        """An event a read at an unreadable node must wait on (or None)."""
        if node_id not in self.unrefreshed:
            return None
        gate = self._gates.get(node_id)
        if gate is None:
            gate = Event(self.system.sim)
            self._gates[node_id] = gate
        return gate

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------

    def on_recover(self, node_id: str) -> None:
        """Recovery observed: unreadable until a refresh completes."""
        self.unrefreshed.add(node_id)
        epoch = self.epochs.get(node_id, 0) + 1
        self.epochs[node_id] = epoch
        self.system.sim.schedule(
            self.refresh_delay, self._request_refresh, node_id, epoch
        )

    def _request_refresh(self, node_id: str, epoch: int) -> None:
        if epoch != self.epochs.get(node_id):
            return  # A newer recovery owns the refresh now.
        if node_id not in self.unrefreshed or node_id in self.system.down_nodes:
            return  # Already refreshed, or crashed again (next recovery
            # schedules its own cycle).
        if self.ledger.pending_ops(node_id) == 0:
            # Nothing was skipped: the store that survived the crash is a
            # complete copy, so the node re-admits itself without a peer.
            # (Also breaks the mutual-unreadability tie when every node
            # recovered at once: the last node down never missed a write.)
            self._mark_readable(node_id)
            self.self_refreshes += 1
            return
        peer = self._pick_peer(node_id)
        if peer is None:
            self.system.sim.schedule(
                self.refresh_delay, self._request_refresh, node_id, epoch
            )
            return
        self.system.network.send(
            node_id, peer, MessageKind.REFRESH_REQUEST, (node_id, epoch)
        )

    def _pick_peer(self, node_id: str) -> typing.Optional[str]:
        """A live source: prefer a readable peer, fall back to any up one.

        The missed-op log is maintained by the *senders* that skipped the
        writes, so an up-but-unrefreshed peer's section for ``node_id`` is
        still authoritative; insisting on a readable peer would deadlock
        when every node recovered with missed writes at once.
        """
        fallback = None
        for candidate in self.system.nodes:
            if candidate == node_id or candidate in self.system.down_nodes:
                continue
            if candidate not in self.unrefreshed:
                return candidate
            if fallback is None:
                fallback = candidate
        return fallback

    # ------------------------------------------------------------------
    # Message handlers (called from the placement dispatch hook)
    # ------------------------------------------------------------------

    def handle_request(self, node, message) -> None:
        """A peer serves the requester's ledger section back to it."""
        requester, epoch = message.payload
        entries = self.ledger.pop(requester)
        self.system.network.send(
            node.node_id, requester, MessageKind.REFRESH_REPLY,
            (epoch, tuple(entries)),
        )

    def handle_reply(self, node, message) -> None:
        epoch, entries = message.payload
        self._apply(node, entries)
        if epoch != self.epochs.get(node.node_id):
            # Crashed again since requesting: the ops above are applied
            # (they were popped at the peer and exist nowhere else), but
            # readability belongs to the newer recovery's refresh.
            return
        # Final drain, atomic with becoming readable: anything skipped
        # between the peer's pop and this reply's arrival.
        self._apply(node, self.ledger.pop(node.node_id))
        self._mark_readable(node.node_id)
        self.refreshes_completed += 1

    def _mark_readable(self, node_id: str) -> None:
        self.unrefreshed.discard(node_id)
        gate = self._gates.pop(node_id, None)
        if gate is not None:
            gate.succeed()

    def _apply(self, node, entries: typing.Sequence[MissedSubtxn]) -> None:
        store = node.store
        for entry in entries:
            # Refresh operations are reconciliation, not new requests:
            # they bypass request/completion accounting entirely (the
            # skipped dispatch never incremented a request counter, so no
            # completion is owed) and re-apply each commuting operation at
            # its original version with the store's dual-write ``write``,
            # so every version copy at or above it absorbs the update.  If
            # garbage collection moved the chain floor past that version
            # while the replica was down, the op lands on the floor
            # instead — exactly where a live replica's own GC would have
            # folded it.
            version = entry.version
            for op in entry.ops:
                key = op.key
                store.write(key, store.floor_version(key, version),
                            op.operation)
            # Register the subtransaction as executed here so a
            # compensator arriving after the refresh applies its inverse
            # instead of tombstoning (and double-counting the original).
            if entry.compensable:
                node._executed.setdefault(entry.txn, set()).add(entry.sid)
            self.refresh_ops_applied += len(entry.ops)
