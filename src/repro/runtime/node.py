"""`ProtocolNode` — the one database node every protocol runs on.

The node owns the mechanism every protocol shares: message dispatch, the
local executor, completion trackers and hierarchical completion notices,
and compensation routing (Section 3.2's tree-edge propagation, including
the tombstone rule for compensation that overtakes its target).  All
protocol policy — version assignment, counters, locks, control messages —
lives in the system's :class:`~repro.runtime.plugin.ProtocolPlugin`.

The node is callback-driven: the network hands each delivered message
straight to :meth:`ProtocolNode._dispatch`, and a subtransaction is two
callbacks — :meth:`ProtocolNode._arrive` up to the service wait,
:meth:`ProtocolNode._finish` after it — with a generator process started
only from the point where a plugin hook really waits.  Local commit comes
right after the local operations and child dispatch, having waited for
nothing non-local (Theorem 4.2); *completion* bookkeeping is delegated to
plugin hooks so 3V can implement both the hierarchical (Table 1) and the
literal-step-6 "immediate" counter timing.
"""

from __future__ import annotations

import typing

from repro.errors import ProtocolError
from repro.net.message import Message, MessageKind
from repro.sim.resources import Resource
from repro.storage.locktable import LockTable
from repro.storage.wal import JournaledStore, NodeJournal
from repro.txn.history import WaitReason
from repro.txn.runtime import CompletionNotice, CompletionTracker, SubtxnInstance


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

        #: Write-ahead journal for crash-recovery (only when the system
        #: runs with fault injection; ``None`` keeps the seed path exact).
        self.journal = NodeJournal(node_id) if system.journaling else None
        store = self.plugin.make_store(self)
        if self.journal is not None:
            store = JournaledStore(store, lambda: self.plugin.make_store(self))
            self.journal.attach("store", store)
        self.store = store
        self.locks = LockTable(self.sim)
        self.executor = Resource(self.sim, capacity=self.config.executor_capacity)

        #: In-flight completion trackers, keyed by instance key.
        self._trackers: typing.Dict[tuple, CompletionTracker] = {}
        #: Subtransactions whose ops ran here, keyed by transaction name
        #: (needed by compensation).  Entries are dropped when the whole
        #: tree completes globally — no message for a completed tree can
        #: still be in flight (completion notices flow only after every
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
        """Deliver a root subtransaction directly to this node's mailbox."""
        if not instance.is_root:
            raise ProtocolError("submit() is for root subtransactions only")
        now = self.sim.now
        self._mailbox.put(Message(
            src=self.node_id, dst=self.node_id,
            kind=MessageKind.SUBTXN_REQUEST, payload=instance,
            sent_at=now, delivered_at=now,
        ))

    # ------------------------------------------------------------------
    # Subtransaction execution (Sections 4.1 / 4.2 mechanism)
    # ------------------------------------------------------------------

    def _arrive(self, instance: SubtxnInstance, kind=None, tracker=None,
                queued_at=None) -> None:
        """Arrival callback: take a subtransaction up to its service wait.

        Straight-line when nothing waits (Theorem 4.2's case, the only one
        plain 3V has), ending in one scheduled :meth:`_finish`.  Where a
        hook does wait, the rest of the path is a re-entry here with the
        progress so far: ``kind`` once admitted, ``tracker`` once past
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
                placement.note_read_served(self.node_id)

            kind = plugin.classify(instance)

            # A plugin may divert this transaction class into its own
            # lifecycle (NC3V's and 2PC's two-phase-commit engine).
            takeover = plugin.takeover(self, instance, kind)
            if takeover is not None:
                self.sim.process(
                    takeover, name=f"{self.node_id}:{instance.sid}")
                return

            # --- Arrival: version assignment and request accounting ---
            if instance.is_root:
                gate = plugin.admit_root(self, instance, kind)
                if gate is not None:
                    self._wait(gate, instance, kind)
                    return
            else:
                plugin.on_descendant(self, instance, kind)

        if tracker is None:
            tracker = CompletionTracker(instance)
            self._trackers[instance.instance_key] = tracker
            # --- Protocol work before the executor (e.g. commute locks)
            pre = plugin.pre_execute(self, instance, kind)
            if pre is not None:
                self._wait(pre, instance, kind, tracker)
                return

        # --- Local concurrency control ---------------------------------
        if queued_at is None:
            queued_at = self.sim.now
            if not self.executor.acquire(
                    self._arrive, instance, kind, tracker, queued_at):
                return
        self.history.waited(
            instance.txn.name, WaitReason.EXECUTOR, self.sim.now - queued_at
        )
        service = plugin.service_time(self, instance)
        if service is None:
            self._finish(tracker, kind)
        else:
            self.sim.schedule(service, self._finish, tracker, kind)

    def _wait(self, waits, instance: SubtxnInstance, *progress) -> None:
        """Sit out a hook's waits in a process, then re-arrive."""
        def waiting():
            yield from waits
            self._arrive(instance, *progress)
        self.sim.process(waiting(), name=f"{self.node_id}:{instance.sid}")

    def _finish(self, tracker: CompletionTracker, kind: str) -> None:
        """Finish callback: the service time is over — run the local
        operations, release the executor, dispatch, and commit locally."""
        plugin = self.plugin
        instance = tracker.instance
        try:
            tombstoned = self._apply_ops(instance, kind)
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
                for neighbour in instance.index.neighbours(instance.sid):
                    if neighbour != instance.comp_skip:
                        self._send_compensator(instance, tracker, neighbour)
        elif aborting:
            parent_sid = instance.index.parent[instance.sid]
            if parent_sid is not None:
                self._send_compensator(instance, tracker, parent_sid)
        elif not tombstoned:
            self._dispatch_children(instance, tracker)

        # --- Local commit (user-visible; Theorem 4.2: nothing above
        # waited for any non-local activity) ----------------------------
        if instance.is_root:
            self.history.locally_committed(instance.txn.name, self.sim.now)

        plugin.on_subtxn_executed(self, instance)
        tracker.executed = True
        if tracker.complete:
            self._complete_instance(instance)

    def _apply_ops(self, instance: SubtxnInstance, kind: str) -> bool:
        """Execute the instance's local operations.

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

    def _dispatch_children(self, instance: SubtxnInstance,
                           tracker: CompletionTracker) -> None:
        plugin = self.plugin
        placement = self.system.placement
        for child_sid in instance.index.children[instance.sid]:
            target = instance.index.node_of(child_sid)
            if (placement is not None
                    and not instance.index.children[child_sid]
                    and placement.should_skip_write(target, instance)):
                # Only leaf children can be skipped: an interior child
                # carries dispatch responsibility for its own subtree.
                # Write-all-available: the replica is down or unrefreshed,
                # so its copy is skipped — no request counter increment,
                # no completion owed (aggregate quiescence stays balanced)
                # — and the missed operations are ledgered for the
                # refresh that will re-admit the replica.
                placement.record_skip(
                    target, instance.txn.name, child_sid,
                    instance.version if instance.version is not None else 0,
                    [(op.key, op.operation)
                     for op in instance.index.by_id[child_sid].ops
                     if hasattr(op, "operation")],
                )
                continue
            child = instance.child_instance(child_sid, self.node_id)
            child.notify_key = instance.instance_key
            # Step 5: request accounting happens *before* sending.
            plugin.note_request(self, instance.version, target)
            tracker.outstanding_children += 1
            self.network.send(
                self.node_id, target, MessageKind.SUBTXN_REQUEST, child
            )

    def _send_compensator(self, instance: SubtxnInstance,
                          tracker: CompletionTracker, target_sid: str) -> None:
        compensator = instance.compensator(target_sid, self.node_id)
        compensator.notify_key = instance.instance_key
        target = instance.index.node_of(target_sid)
        self.plugin.note_request(self, instance.version, target)
        tracker.outstanding_children += 1
        self.network.send(
            self.node_id, target, MessageKind.COMPENSATION, compensator
        )

    def _complete_instance(self, instance: SubtxnInstance) -> None:
        """Subtree completion: plugin accounting plus the upward notice."""
        self.plugin.on_instance_complete(self, instance)
        del self._trackers[instance.instance_key]
        if instance.notify_key is None:
            # Root of the tree: the whole transaction is done.
            self.history.globally_completed(instance.txn.name, self.sim.now)
            self.plugin.on_root_complete(self, instance)
            self._forget_txn(instance)
            return
        notice = CompletionNotice(
            txn_name=instance.txn.name,
            parent_key=instance.notify_key,
            child_key=instance.instance_key,
        )
        if instance.source_node == self.node_id:
            self._on_completion_notice(notice)
        else:
            self.network.send(
                self.node_id, instance.source_node,
                MessageKind.COMPLETION_NOTICE, notice,
            )

    def _forget_txn(self, instance: SubtxnInstance) -> None:
        """Drop a globally-completed tree's compensation bookkeeping.

        Called on the root node once the whole transaction is done.  At
        that point no message for the tree is in flight anywhere (every
        child — original, tombstoned, or compensating — was delivered,
        executed, and acknowledged before the root's tracker drained), so
        the per-node ``_executed`` / ``_tombstones`` entries can never be
        consulted again.  Forgetting them keeps node bookkeeping bounded
        by the number of *in-flight* transactions rather than growing
        with everything the run has ever executed — the invariant the
        million-transaction volume axis depends on.
        """
        name = instance.txn.name
        nodes = self.system.nodes
        index = instance.index
        for node_id in {index.node_of(sid) for sid in index.by_id}:
            node = nodes.get(node_id)
            if node is not None:
                node._executed.pop(name, None)
                node._tombstones.pop(name, None)

    def _on_completion_notice(self, notice: CompletionNotice) -> None:
        tracker = self._trackers.get(notice.parent_key)
        if tracker is None:
            raise ProtocolError(
                f"node {self.node_id}: completion notice for unknown "
                f"instance {notice.parent_key!r}"
            )
        tracker.outstanding_children -= 1
        if tracker.complete:
            self._complete_instance(tracker.instance)

    @property
    def active_subtxns(self) -> int:
        return len(self._trackers)
