"""The "Manual Versioning" baseline (Section 1).

"One can accumulate update transactions for some period, say a month, in a
new version that is not available for reading.  Some time after the month
ends, we *hope* that all updates have been applied to that month's version
... Meanwhile, accumulation of update transactions for the next month takes
place in a new version."

Two variants are provided:

* **Asynchronous** (default): every ``period`` the coordinator broadcasts a
  new update version, and after a fixed ``safety_delay`` makes the previous
  version readable — with *no termination detection*.  A straggler
  subtransaction that lands after the switch writes only its own version's
  copy (there is no dual-write rule), so an undersized safety delay produces
  exactly the paper's failure mode: "a bill generation query ... may still
  report only a part of the charges from the January 31st procedures".
* **Synchronous** (``synchronous=True``): the coordinator freezes admission
  of new root transactions, drains all in-flight transactions, switches
  both versions, and thaws — correct, but user transactions stall for the
  whole drain (the global synchronization the 3V protocol exists to avoid;
  used as the blocking comparator in experiments C2/C7).
"""

from __future__ import annotations

import collections
import functools
import typing

from repro.errors import ProtocolError
from repro.net.message import Message, MessageKind
from repro.runtime.node import ProtocolNode
from repro.runtime.plugin import ProtocolPlugin
from repro.runtime.registry import PROTOCOLS
from repro.runtime.system import System
from repro.sim.events import Event, Machine, Ticker, after_trigger
from repro.storage.mvstore import MVStore
from repro.txn.history import TxnKind

MANUAL_COORDINATOR_ID = "manual-coordinator"

#: A manual-versioning node is the runtime node with ``vu``/``vr`` and the
#: freeze/thaw state attached by the plugin.
ManualNode = ProtocolNode


class ManualPlugin(ProtocolPlugin):
    """Per-node policy: switch versions on command, with no safety checks."""

    def init_node(self, node) -> None:
        node.vu = 1
        node.vr = 0
        node._frozen = False
        node._thaw = Event(node.sim)
        node._thaw.succeed()  # starts open

    def make_store(self, node):
        # Unchecked: the paper's strawman keeps more than three versions
        # (7 live in a default 60 s recording run; 5 for manual-sync).
        return MVStore()

    # -- versioning hooks ------------------------------------------------

    def assign_version(self, node, kind: str) -> int:
        return node.vr if kind == TxnKind.READ else node.vu

    def admission_gate(self, node, instance, kind):
        return functools.partial(self._gate, node) if node._frozen else None

    def _gate(self, node, then) -> None:
        """Hold a root until its node thaws (checked again at each thaw:
        the node may have frozen again by then)."""
        if node._frozen:
            node._thaw.add_callback(lambda _thaw: self._gate(node, then))
        else:
            then()

    # Writes use the inherited execute_ops (write_exact) — deliberately
    # *no* dual-write rule; a straggler updates only its own version's copy.

    # -- control messages --------------------------------------------------

    def handle_message(self, node, message: Message) -> None:
        kind = message.kind
        if kind == MessageKind.START_ADVANCEMENT:
            if isinstance(message.payload, tuple):
                # Synchronous switch: new vu, new vr, and thaw arrive as
                # one atomic message (separate messages could be reordered
                # by the network, letting a thawed root see a stale vu).
                vu_new, vr_new = message.payload
                node.vu = max(node.vu, vu_new)
                node.vr = max(node.vr, vr_new)
                if node._frozen:
                    node._frozen = False
                    node._thaw.succeed()
            else:
                node.vu = max(node.vu, message.payload)
        elif kind == MessageKind.READ_ADVANCE:
            node.vr = max(node.vr, message.payload)
        elif kind == MessageKind.FREEZE:
            if not node._frozen:
                node._frozen = True
                node._thaw = Event(node.sim)
            node.network.send(
                node.node_id, message.src, MessageKind.FREEZE_ACK,
                node.node_id,
            )
        elif kind == MessageKind.UNFREEZE:
            if node._frozen:
                node._frozen = False
                node._thaw.succeed()
        elif kind == MessageKind.ACTIVE_QUERY:
            node.network.send(
                node.node_id, message.src, MessageKind.ACTIVE_REPLY,
                (node.node_id, node.active_subtxns),
            )
        else:
            raise ProtocolError(
                f"manual node {node.node_id}: unexpected {kind!r}"
            )


class ManualVersioningSystem(System):
    """Period-driven versioning with a fixed (hoped-sufficient) delay.

    Args:
        period: Time between update-version switches.
        safety_delay: How long after a switch the previous version becomes
            readable (asynchronous variant only).  The paper's practice is
            to set this "conservatively high", trading staleness for a
            lower chance of reading a half-applied transaction.
        synchronous: Use the blocking drain-the-world variant instead.
        poll_interval: Drain-poll cadence for the synchronous variant.
        start_after: Time of the first switch (defaults to ``period``).

    The switching runs as one state machine: a :class:`Ticker` of
    :meth:`_switch`, or a :class:`_SyncSwitcher`.
    """

    plugin_class = ManualPlugin

    def __init__(
        self,
        node_ids: typing.Sequence[str],
        period: float,
        safety_delay: float = 0.0,
        synchronous: bool = False,
        poll_interval: float = 0.25,
        start_after: typing.Optional[float] = None,
        **kwargs,
    ):
        super().__init__(node_ids, **kwargs)
        if period <= 0:
            raise ProtocolError(f"switch period must be > 0: {period}")
        if safety_delay < 0:
            raise ProtocolError(f"safety_delay must be >= 0: {safety_delay}")
        self.period = period
        self.safety_delay = safety_delay
        self.synchronous = synchronous
        self.poll_interval = poll_interval
        self.start_after = period if start_after is None else start_after
        self.vu = 1
        self.vr = 0
        #: When each version stopped accepting new updates (staleness base).
        self.version_closed_at: typing.Dict[int, float] = {}
        #: When each version became readable.
        self.version_readable_at: typing.Dict[int, float] = {0: 0.0}
        self._mailbox = self.network.register(MANUAL_COORDINATOR_ID)
        self._driver = _SyncSwitcher(self) if synchronous else Ticker(
            self.sim, period, self._switch, first=self.start_after)

    def current_read_version(self, node) -> int:
        return node.vr

    def stop_policy(self) -> None:
        self._driver.kill()

    def _broadcast(self, kind: str, payload=None) -> None:
        self.network.broadcast_to(
            MANUAL_COORDINATOR_ID, list(self.nodes), kind, payload)

    # ------------------------------------------------------------------
    # Asynchronous (classic) switching: no termination detection
    # ------------------------------------------------------------------

    def _switch(self) -> None:
        """Open a new update version; ``safety_delay`` later the previous
        one becomes readable (a timer of its own, which ``stop_policy``
        does not cancel)."""
        old_update = self.vu
        self.vu += 1
        self.version_closed_at[old_update] = self.sim.now
        self._broadcast(MessageKind.START_ADVANCEMENT, self.vu)
        self.sim.schedule_now(self._arm_read_switch, old_update)

    def _arm_read_switch(self, version: int) -> None:
        self.sim.schedule(self.safety_delay, self._read_switch, version)

    def _read_switch(self, version: int) -> None:
        self.vr = max(self.vr, version)
        self.version_readable_at[version] = self.sim.now
        self._broadcast(MessageKind.READ_ADVANCE, version)
        # It ends like a Machine: one triggered event.
        Event(self.sim).succeed()


class _SyncSwitcher(Machine):
    """Synchronous (blocking) switching: freeze every node, wait for all
    freeze acks, poll until no subtransaction is active, then switch both
    versions and thaw in one message per node.

    Each step is a round: a broadcast and one reply per node
    (``replies``), collected from the coordinator mailbox's consumer
    (:meth:`_deliver`); a reply that arrives while nothing waits queues
    in ``inbox``.
    """

    def __init__(self, system: ManualVersioningSystem):
        self.system = system
        self.inbox: collections.deque = collections.deque()
        self.waiting = False
        system._mailbox.consume(self._deliver)
        super().__init__(system.sim)

    def _start(self) -> None:
        self.sim.schedule(self.system.start_after, self._freeze)

    def _freeze(self) -> None:
        # Wait until every node is actually frozen before checking for
        # quiescence — otherwise a root admitted on a not-yet-frozen
        # node can slip past a drain poll that already sampled it.
        self._round(MessageKind.FREEZE, MessageKind.FREEZE_ACK)

    def _query(self) -> None:
        self._round(MessageKind.ACTIVE_QUERY, MessageKind.ACTIVE_REPLY)

    def _round(self, kind: str, reply_kind: str) -> None:
        if self.triggered:
            return
        self.system._broadcast(kind)
        self.expect = reply_kind
        self.replies: typing.Dict[str, int] = {}
        self._receive()

    def _on_reply(self, message) -> None:
        if self.triggered:
            return
        if message.kind != self.expect:
            raise ProtocolError(
                f"manual coordinator: unexpected {message.kind!r} "
                f"while collecting {self.expect!r}"
            )
        if self.expect == MessageKind.FREEZE_ACK:
            self.replies[message.payload] = 0
        else:
            node_id, active = message.payload
            self.replies[node_id] = active
        if len(self.replies) < len(self.system.nodes):
            self._receive()
        elif self.expect == MessageKind.FREEZE_ACK:
            self._query()
        elif any(self.replies.values()):
            self.sim.schedule(self.system.poll_interval, self._query)
        else:
            self._switch()

    def _switch(self) -> None:
        system = self.system
        old_update = system.vu
        system.vu += 1
        system.vr = old_update
        system.version_closed_at[old_update] = self.sim.now
        system.version_readable_at[old_update] = self.sim.now
        # One atomic switch-and-thaw message per node (see handler).
        system._broadcast(MessageKind.START_ADVANCEMENT,
                          (system.vu, old_update))
        self.sim.schedule(system.period, self._freeze)

    def _receive(self) -> None:
        """Take the next reply in a later callback."""
        if self.inbox:
            after_trigger(self.sim, self._on_reply, self.inbox.popleft())
        else:
            self.waiting = True

    def _deliver(self, message) -> None:
        if self.waiting:
            self.waiting = False
            self.sim.schedule_now(self._on_reply, message)
        else:
            self.inbox.append(message)


def _build_manual(node_ids, *, seed, latency, node_config,
                  advancement_period, safety_delay, poll_interval,
                  allow_noncommuting, faults=None, batch_delivery=False,
                  history=None, placement=None):
    return ManualVersioningSystem(
        node_ids, period=advancement_period, safety_delay=safety_delay,
        seed=seed, latency=latency, node_config=node_config,
        faults=faults, batch_delivery=batch_delivery, history=history,
        placement=placement,
    )


def _build_manual_sync(node_ids, *, seed, latency, node_config,
                       advancement_period, safety_delay, poll_interval,
                       allow_noncommuting, faults=None, batch_delivery=False,
                       history=None, placement=None):
    return ManualVersioningSystem(
        node_ids, period=advancement_period, synchronous=True,
        seed=seed, latency=latency, node_config=node_config,
        faults=faults, batch_delivery=batch_delivery, history=history,
        placement=placement,
    )


PROTOCOLS.register(
    "manual", _build_manual, order=2, detects_termination=False,
    description="periodic version switches with a fixed safety delay "
                "(no termination detection)",
)
PROTOCOLS.register(
    "manual-sync", _build_manual_sync, order=3,
    description="manual versioning's blocking freeze-drain-switch variant",
)
