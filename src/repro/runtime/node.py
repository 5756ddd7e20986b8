"""`ProtocolNode` — the one database node every protocol runs on.

The node owns the mechanism every protocol shares: message dispatch, the
local executor, hierarchical completion (each envelope counts its own
outstanding children and is the notice its parent receives), and
compensation routing (Section 3.2's tree-edge propagation, including the
tombstone rule for compensation that overtakes its target).  All
protocol policy — version assignment, counters, locks, control messages —
lives in the system's :class:`~repro.runtime.plugin.ProtocolPlugin`.

The node is callback-driven: the network hands each delivered message
straight to :meth:`ProtocolNode._dispatch`, and a subtransaction is two
callbacks — :meth:`ProtocolNode._arrive` up to the service wait,
:meth:`ProtocolNode._finish` after it — plus, only where a plugin hook
really waits, the hook's own wait and a re-entry into ``_arrive``.  Local
commit comes right after the local operations and child dispatch, having
waited for nothing non-local (Theorem 4.2); *completion* bookkeeping is
delegated to plugin hooks so 3V can implement both the hierarchical
(Table 1) and the literal-step-6 "immediate" counter timing.
"""

from __future__ import annotations

import typing

from repro.errors import ProtocolError
from repro.net.message import Message, MessageKind
from repro.sim.events import Event
from repro.sim.resources import Resource
from repro.storage.locktable import LockTable
from repro.txn.history import WaitReason
from repro.txn.runtime import SubtxnInstance
from repro.txn.spec import ReadOp


class ProtocolNode:
    """One database node, specialised by the system's protocol plugin."""

    def __init__(self, system, node_id: str):
        self.system = system
        self.sim = system.sim
        self.network = system.network
        self.history = system.history
        self.config = system.config
        self.rngs = system.rngs
        self.plugin = system.plugin
        self.node_id = node_id

        self.store = self.plugin.make_store(self)
        self.locks = LockTable(self.sim)
        self.executor = Resource(self.sim, capacity=self.config.executor_capacity)

        #: Instances admitted here whose subtree has not completed yet.
        self._live: typing.Set[SubtxnInstance] = set()
        #: Subtransactions whose ops ran here, keyed by transaction name, of
        #: transactions that can abort (only a scripted ``abort_here`` makes
        #: compensators, the one reader).  Entries are dropped when the
        #: whole tree completes globally — no message for a completed tree
        #: can still be in flight (completion notices flow only after every
        #: child, original or compensating, has been delivered and
        #: executed) — so this stays O(in-flight txns), not O(run length).
        self._executed: typing.Dict[str, typing.Set[str]] = {}
        #: Compensation that arrived before its target subtransaction,
        #: same keying and lifetime as ``_executed``.
        self._tombstones: typing.Dict[str, typing.Set[str]] = {}
        #: Monotone count of tombstones ever laid here (the entries above
        #: are reclaimed at global completion, so tests and diagnostics
        #: that want evidence of an overtake race read this instead).
        self.tombstones_created = 0

        # The service-time stream is drawn from on every subtransaction;
        # binding it once avoids the registry lookup per draw (stream seeds
        # are name-derived, so early binding does not perturb any draws).
        self._service_rng = self.rngs.stream("node.service")

        self._mailbox = self.network.register(node_id)
        self._mailbox.consume(self._dispatch)
        self.plugin.init_node(self)

    # ------------------------------------------------------------------
    # Message handling (the mailbox's consumer: runs inside delivery)
    # ------------------------------------------------------------------

    def _dispatch(self, message: Message) -> None:
        kind = message.kind
        if kind == MessageKind.SUBTXN_REQUEST or kind == MessageKind.COMPENSATION:
            self._arrive(message.payload)
        elif kind == MessageKind.COMPLETION_NOTICE:
            self._on_completion_notice(message.payload)
        elif (kind == MessageKind.REFRESH_REQUEST
              or kind == MessageKind.REFRESH_REPLY):
            self.system.placement.handle_message(self, message)
        else:
            self.plugin.handle_message(self, message)

    # ------------------------------------------------------------------
    # Submission (client-side entry point; no network hop)
    # ------------------------------------------------------------------

    def submit(self, instance: SubtxnInstance) -> None:
        """Start a root subtransaction at this node.

        A live node with nothing queued runs it inline, as its mailbox
        would hand it over, and no :class:`Message` is built.  At a
        crashed or backlogged node the root queues in the mailbox behind
        what is already there and runs, in submission order, once the
        node has recovered and drained what came before.
        """
        if not instance.is_root:
            raise ProtocolError("submit() is for root subtransactions only")
        mailbox = self._mailbox
        # This node is the mailbox's consumer: it hands over unless frozen
        # or backlogged.
        if not (mailbox._frozen or mailbox._items):
            self._arrive(instance)
            return
        now = self.sim.now
        mailbox.put(Message(
            src=self.node_id, dst=self.node_id,
            kind=MessageKind.SUBTXN_REQUEST, payload=instance,
            sent_at=now, delivered_at=now,
        ))

    # ------------------------------------------------------------------
    # Subtransaction execution (Sections 4.1 / 4.2 mechanism)
    # ------------------------------------------------------------------

    def _arrive(self, instance: SubtxnInstance, kind=None, live=False,
                queued_at=None) -> None:
        """Arrival callback: take a subtransaction up to its service wait.

        Straight-line when nothing waits (Theorem 4.2's case, the only one
        plain 3V has), ending in one scheduled :meth:`_finish`.  Where a
        hook does wait, the rest of the path is a re-entry here with the
        progress so far: ``kind`` once admitted, ``live`` once past
        ``pre_execute``, ``queued_at`` once the executor is held.
        """
        plugin = self.plugin
        if kind is None:
            # --- Recovery-readability (before any protocol policy, so
            # the gate also covers transactions a plugin diverts via
            # takeover): a read at a recovered-but-unrefreshed replica
            # waits out the refresh rather than observing stale state,
            # then re-arrives and checks again. --------------------------
            placement = self.system.placement
            if placement is not None and instance.txn.is_read_only:
                gate = placement.read_gate(self.node_id)
                if gate is not None:
                    gate.add_callback(lambda _gate: self._arrive(instance))
                    return
                placement.read_served(self.node_id)

            kind = instance.txn.kind

            # A plugin may divert this transaction class into its own
            # lifecycle (NC3V's and 2PC's two-phase-commit engine).
            takeover = plugin.takeover
            if takeover is not None:
                run = takeover(self, instance, kind)
                if run is not None:
                    # One scheduled start and, at its end, one triggered
                    # event.
                    self.sim.schedule_now(run, Event(self.sim).succeed)
                    return

            # --- Arrival: version assignment and request accounting ---
            if instance.is_root:
                gate = plugin.admit_root(self, instance, kind)
                if gate is not None:
                    self._wait(gate, instance, kind)
                    return
            else:
                plugin.on_descendant(self, instance, kind)

        if not live:
            self._live.add(instance)
            # --- Protocol work before the executor (e.g. commute locks)
            pre_execute = plugin.pre_execute
            if pre_execute is not None:
                pre = pre_execute(self, instance, kind)
                if pre is not None:
                    self._wait(pre, instance, kind, True)
                    return

        # --- Local concurrency control: a grant on the spot waited for
        # nothing; a queued one re-enters here with its queueing time. ---
        if queued_at is None:
            if not self.executor.acquire(
                    self._arrive, instance, kind, True, self.sim.now):
                return
        else:
            self.history.waited(
                instance.txn.name, WaitReason.EXECUTOR,
                self.sim.now - queued_at)
        service = plugin.service_time(self, instance)
        if service is None:
            self._finish(instance, kind)
        else:
            self.sim.schedule(service, self._finish, instance, kind)

    def _wait(self, wait, instance: SubtxnInstance, *progress) -> None:
        """Sit out a hook's wait: start it in one scheduled callback; its
        ``then`` re-enters :meth:`_arrive` and triggers the wait's end."""
        done = Event(self.sim)

        def then():
            self._arrive(instance, *progress)
            done.succeed()

        self.sim.schedule_now(wait, then)

    def _finish(self, instance: SubtxnInstance, kind: str) -> None:
        """Finish callback: the service time is over — run the local
        operations, release the executor, dispatch, and commit locally."""
        plugin = self.plugin
        try:
            if instance.txn.wants_abort:
                tombstoned = self._apply_ops(instance, kind)
            else:
                # No compensator can reach this tree: nothing to record.
                plugin.execute_ops(self, instance, kind)
                tombstoned = False
        finally:
            self.executor.release()

        # --- Scripted abort: roll back and compensate (Section 3.2) ----
        aborting = (
            instance.spec.abort_here and not instance.compensating
            and not tombstoned
        )
        if aborting:
            plugin.apply_inverses(self, instance)
            self.history.aborted(instance.txn.name, self.sim.now, "requested")
            self.history.compensated(instance.txn.name)

        # --- Dispatch (children, or compensation fan-out to the other
        # tree neighbours) -----------------------------------------------
        if instance.compensating:
            if not tombstoned:
                for neighbour in instance.tree.neighbours(instance.sid):
                    if neighbour != instance.comp_skip:
                        self._send_compensator(instance, neighbour)
        elif aborting:
            if not instance.is_root:
                self._send_compensator(
                    instance,
                    instance.compensation_tree().parent[instance.sid])
        elif not tombstoned and instance.spec.children:
            self._dispatch_children(instance)

        # --- Local commit (user-visible; Theorem 4.2: nothing above
        # waited for any non-local activity) ----------------------------
        if instance.is_root:
            self.history.locally_committed(instance.txn.name, self.sim.now)

        on_executed = plugin.on_subtxn_executed
        if on_executed is not None:
            on_executed(self, instance)
        instance.executed = True
        if not instance.outstanding_children:
            self._complete_instance(instance)

    def _apply_ops(self, instance: SubtxnInstance, kind: str) -> bool:
        """Execute the local operations of a transaction that can abort,
        keeping the record compensation consults.

        Returns:
            ``True`` if the instance was suppressed (tombstoned original, or
            compensation for a subtransaction that never ran here).
        """
        name = instance.txn.name
        if instance.compensating:
            if instance.sid not in self._executed.get(name, ()):
                # Compensation overtook the original: leave a tombstone so
                # the original becomes a no-op when it arrives.  If the
                # original was skipped for this replica (write-all-
                # available), the ledgered copy is cancelled instead —
                # the pair annihilates, so the refresh must not apply it.
                self._tombstones.setdefault(name, set()).add(instance.sid)
                self.tombstones_created += 1
                placement = self.system.placement
                if placement is not None:
                    placement.cancel_skip(self.node_id, name, instance.sid)
                return True
            self.plugin.apply_inverses(self, instance)
            return False
        if instance.sid in self._tombstones.get(name, ()):
            # "A compensating subtransaction causes abort of the
            # corresponding subtransaction if it has not finished."
            return True
        self.plugin.execute_ops(self, instance, kind)
        self._executed.setdefault(name, set()).add(instance.sid)
        return False

    # ------------------------------------------------------------------
    # Dispatch and completion plumbing
    # ------------------------------------------------------------------

    def _dispatch_children(self, instance: SubtxnInstance) -> None:
        plugin = self.plugin
        placement = self.system.placement
        for child_sid, child_spec, target in instance.child_targets():
            if (placement is not None
                    and not child_spec.children
                    and placement.should_skip_write(target, instance)):
                # Only leaf children can be skipped: an interior child
                # carries dispatch responsibility for its own subtree.
                # Write-all-available: the replica is down or unrefreshed,
                # so its copy is skipped — no request counter increment,
                # no completion owed (aggregate quiescence stays balanced)
                # — and the subtransaction's write ops are ledgered, as
                # one entry, for the refresh that will re-admit the
                # replica.
                placement.record_skip(
                    target, instance.txn.name, child_sid,
                    instance.version if instance.version is not None else 0,
                    [op for op in child_spec.ops if op.__class__ is not ReadOp],
                    compensable=instance.txn.wants_abort,
                )
                continue
            child = instance.child(child_sid, child_spec, self.node_id)
            # Step 5: request accounting happens *before* sending.
            plugin.note_request(self, instance.version, target)
            instance.outstanding_children += 1
            self.network.send(
                self.node_id, target, MessageKind.SUBTXN_REQUEST, child
            )

    def _send_compensator(self, instance: SubtxnInstance,
                          target_sid: str) -> None:
        compensator = instance.compensator(target_sid, self.node_id)
        target = compensator.spec.node
        self.plugin.note_request(self, instance.version, target)
        instance.outstanding_children += 1
        self.network.send(
            self.node_id, target, MessageKind.COMPENSATION, compensator
        )

    def _complete_instance(self, instance: SubtxnInstance) -> None:
        """Subtree completion: plugin accounting plus the upward notice."""
        plugin = self.plugin
        if plugin.on_instance_complete is not None:
            plugin.on_instance_complete(self, instance)
        self._live.remove(instance)
        if instance.is_root:
            # Root of the tree: the whole transaction is done.
            self.history.globally_completed(instance.txn.name, self.sim.now)
            if plugin.on_root_complete is not None:
                plugin.on_root_complete(self, instance)
            if instance.txn.wants_abort:
                self._forget_txn(instance)
            return
        # The notice is the instance itself: it names its parent.
        if instance.source_node == self.node_id:
            self._on_completion_notice(instance)
        else:
            self.network.send(
                self.node_id, instance.source_node,
                MessageKind.COMPLETION_NOTICE, instance,
            )

    def _forget_txn(self, instance: SubtxnInstance) -> None:
        """Drop a globally-completed tree's compensation bookkeeping.

        Called on the root node once a transaction that can abort is done.
        At that point no message for the tree is in flight anywhere (every
        child — original, tombstoned, or compensating — was delivered,
        executed, and acknowledged before the root's count drained), so
        the per-node ``_executed`` / ``_tombstones`` entries can never be
        consulted again.  Forgetting them keeps node bookkeeping bounded
        by the number of *in-flight* transactions rather than growing
        with everything the run has ever executed — the invariant the
        million-transaction volume axis depends on.
        """
        name = instance.txn.name
        nodes = self.system.nodes
        # The spec's own nodes: only read-only trees are re-routed, and
        # those cannot abort.
        for node_id in instance.txn.nodes:
            node = nodes.get(node_id)
            if node is not None:
                node._executed.pop(name, None)
                node._tombstones.pop(name, None)

    def _on_completion_notice(self, child: SubtxnInstance) -> None:
        parent = child.parent
        if parent not in self._live:
            raise ProtocolError(
                f"node {self.node_id}: completion notice from "
                f"{child.txn.name}/{child.sid} for unknown instance"
            )
        parent.outstanding_children -= 1
        if parent.executed and not parent.outstanding_children:
            self._complete_instance(parent)

    @property
    def active_subtxns(self) -> int:
        return len(self._live)
