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
  copy (there is no dual-write rule), so an undersized safety delay yields
  exactly the paper's failure mode: "a bill generation query ... may still
  report only a part of the charges from the January 31st procedures".
* **Synchronous** (``synchronous=True``): the coordinator freezes admission
  of new root transactions, drains all in-flight transactions, switches
  both versions, and thaws — correct, but user transactions stall for the
  whole drain (the global synchronization the 3V protocol exists to avoid;
  used as the blocking comparator in experiments C2/C7).
"""

from __future__ import annotations

import typing

from repro.errors import ProtocolError
from repro.net.message import Message, MessageKind
from repro.runtime.node import ProtocolNode
from repro.runtime.plugin import ProtocolPlugin
from repro.runtime.registry import PROTOCOLS
from repro.runtime.system import System
from repro.sim.events import Event
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
        return self._gate(node) if node._frozen else None

    def _gate(self, node):
        while node._frozen:
            yield node._thaw

    # Writes use the inherited execute_ops (apply_exact) — deliberately
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
        self._driver = self.sim.process(
            self._sync_driver() if synchronous else self._async_driver(),
            name="manual-switcher",
        )

    def current_read_version(self, node) -> int:
        return node.vr

    def stop_policy(self) -> None:
        self._driver.kill()

    # ------------------------------------------------------------------
    # Asynchronous (classic) switching
    # ------------------------------------------------------------------

    def _async_driver(self):
        yield self.sim.timeout(self.start_after)
        while True:
            old_update = self.vu
            self.vu += 1
            self.version_closed_at[old_update] = self.sim.now
            self.network.broadcast_to(
                MANUAL_COORDINATOR_ID, list(self.nodes),
                MessageKind.START_ADVANCEMENT, self.vu,
            )
            self.sim.process(
                self._delayed_read_switch(old_update),
                name=f"read-switch-{old_update}",
            )
            yield self.sim.timeout(self.period)

    def _delayed_read_switch(self, version: int):
        yield self.sim.timeout(self.safety_delay)
        self.vr = max(self.vr, version)
        self.version_readable_at[version] = self.sim.now
        self.network.broadcast_to(
            MANUAL_COORDINATOR_ID, list(self.nodes),
            MessageKind.READ_ADVANCE, version,
        )

    # ------------------------------------------------------------------
    # Synchronous (blocking) switching
    # ------------------------------------------------------------------

    def _sync_driver(self):
        yield self.sim.timeout(self.start_after)
        while True:
            self.network.broadcast_to(
                MANUAL_COORDINATOR_ID, list(self.nodes), MessageKind.FREEZE
            )
            # Wait until every node is actually frozen before checking for
            # quiescence — otherwise a root admitted on a not-yet-frozen
            # node can slip past a drain poll that already sampled it.
            acked: typing.Set[str] = set()
            while len(acked) < len(self.nodes):
                message = yield self._mailbox.get()
                if message.kind != MessageKind.FREEZE_ACK:
                    raise ProtocolError(
                        f"manual coordinator: unexpected {message.kind!r} "
                        "while collecting freeze acks"
                    )
                acked.add(message.payload)
            yield from self._drain()
            old_update = self.vu
            self.vu += 1
            self.vr = old_update
            self.version_closed_at[old_update] = self.sim.now
            self.version_readable_at[old_update] = self.sim.now
            # One atomic switch-and-thaw message per node (see handler).
            self.network.broadcast_to(
                MANUAL_COORDINATOR_ID, list(self.nodes),
                MessageKind.START_ADVANCEMENT, (self.vu, old_update),
            )
            yield self.sim.timeout(self.period)

    def _drain(self):
        """Poll until every node reports zero active subtransactions."""
        while True:
            self.network.broadcast_to(
                MANUAL_COORDINATOR_ID, list(self.nodes),
                MessageKind.ACTIVE_QUERY,
            )
            replies: typing.Dict[str, int] = {}
            while len(replies) < len(self.nodes):
                message = yield self._mailbox.get()
                if message.kind != MessageKind.ACTIVE_REPLY:
                    raise ProtocolError(
                        f"manual coordinator: unexpected {message.kind!r}"
                    )
                node_id, active = message.payload
                replies[node_id] = active
            if all(count == 0 for count in replies.values()):
                return
            yield self.sim.timeout(self.poll_interval)


def _build_manual(node_ids, *, seed, latency, node_config, detail,
                  advancement_period, safety_delay, poll_interval,
                  allow_noncommuting, faults=None, batch_delivery=False,
                  history=None, placement=None):
    return ManualVersioningSystem(
        node_ids, period=advancement_period, safety_delay=safety_delay,
        seed=seed, latency=latency, node_config=node_config, detail=detail,
        faults=faults, batch_delivery=batch_delivery, history=history,
        placement=placement,
    )


def _build_manual_sync(node_ids, *, seed, latency, node_config, detail,
                       advancement_period, safety_delay, poll_interval,
                       allow_noncommuting, faults=None, batch_delivery=False,
                       history=None, placement=None):
    return ManualVersioningSystem(
        node_ids, period=advancement_period, synchronous=True,
        seed=seed, latency=latency, node_config=node_config, detail=detail,
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
