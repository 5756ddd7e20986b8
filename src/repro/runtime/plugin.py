"""`ProtocolPlugin` — the policy half of the runtime's mechanism/policy split.

A plugin specialises :class:`~repro.runtime.node.ProtocolNode` and
:class:`~repro.runtime.system.System` for one protocol.  The base class is
a complete, runnable protocol by itself: the "no coordination" semantics
(one version, number 0; reads and writes hit it directly; no counters, no
gates, no control messages).  Every other protocol overrides a subset of
the hooks.

Hook contract (see ``docs/PROTOCOL.md`` for the full walk-through):

* The node runs a subtransaction as plain callbacks (arrival, then finish
  after the service time).
* ``admit_root`` / ``pre_execute`` / ``admission_gate`` may need to wait
  on simulation events.  They return ``None`` when they finished
  synchronously — the node then carries straight on in the same callback
  — or a *wait*: a callable ``wait(then)`` that starts waiting when it is
  called and calls ``then()`` once, inline, from the callback that ends
  the wait.  The node starts it in one scheduled callback and, from
  ``then``, re-enters the arrival callback at the step after the hook.
  Return a wait only when there is something to wait for.
* ``takeover`` lets a plugin replace the runtime's whole subtransaction
  lifecycle for some transaction class (NC3V and 2PC divert into the
  shared :mod:`repro.runtime.twophase` engine this way).  It returns a
  callable ``run(then)`` shaped like a wait, which the node starts in one
  scheduled callback and which calls ``then()`` when the lifecycle ends,
  or ``None`` to run the shared path.
* ``takeover``, ``pre_execute``, ``on_subtxn_executed``,
  ``on_instance_complete`` and ``on_root_complete`` are *optional*: each
  is ``None`` unless the plugin binds it, as a method of its class or,
  where its configuration decides, as an attribute set in :meth:`bind`.
  The node calls a bound one and skips a ``None`` one without a call, so
  a protocol pays nothing per subtransaction for a hook it has no work
  for.  Binding the hook is the whole declaration: there is no second
  list of what a plugin does.
* ``service_time`` returns the local service time as a number (or
  ``None`` for "no service wait at all"); it owns the protocol's
  service-RNG draw discipline.  The node turns it into one scheduled
  finish callback.
* Everything else is a plain synchronous callback.
* **No reference cycle per transaction.**  ``run_recording_experiment``
  and ``run_spec`` keep CPython's cyclic collector off while they run
  (``workloads.runner.collector_paused``), so whatever a transaction
  leaves behind must die by reference count: no record that points back
  at its owner, no closure or bound method stored on the object it
  closes over, no caught exception kept alive with its traceback.  A
  wait's state lives on the events it waits on, and their callbacks are
  dropped as each event fires.  ``tests/test_gc_pause.py`` runs every
  registered protocol in four regimes and fails when the unreachable
  objects grow with the run.  What is cyclic once per *system* (a
  coordinator and the network, through its mailbox) is the ``System``
  subclass's to empty in :meth:`System.close`; the same file checks it.

Plugins hold no per-node mutable state of their own; node-local protocol
state (counters, version variables, engines) is attached to the node in
:meth:`ProtocolPlugin.init_node`, keeping one plugin instance shareable by
all nodes of a system.
"""

from __future__ import annotations

import functools

from repro.errors import ProtocolError
from repro.net.message import Message
from repro.storage.mvstore import MVStore
from repro.txn.history import TxnKind, WaitReason
from repro.txn.runtime import SubtxnInstance
from repro.txn.spec import ReadOp


class ProtocolPlugin:
    """Default plugin: single-version, uncoordinated execution."""

    #: ``run(then)`` replacing the whole subtransaction lifecycle, from
    #: ``takeover(node, instance, kind)``, or ``None`` (the shared path).
    takeover = None
    #: ``pre_execute(node, instance, kind)``: a wait run before the
    #: executor is acquired (e.g. commute locks), or ``None`` (no wait).
    pre_execute = None
    #: ``on_subtxn_executed(node, instance)``: the subtransaction
    #: committed locally and dispatched its children (Section 4.1 step 6
    #: timing, "immediate" completion counting).
    on_subtxn_executed = None
    #: ``on_instance_complete(node, instance)``: the whole subtree under
    #: the instance has completed (hierarchical completion counting).
    on_instance_complete = None
    #: ``on_root_complete(node, instance)``: the root's subtree, the whole
    #: transaction, has completed.
    on_root_complete = None

    def __init__(self):
        self.system = None

    # ------------------------------------------------------------------
    # System integration
    # ------------------------------------------------------------------

    def bind(self, system) -> None:
        """Attach to the owning system (called before nodes are built);
        a subclass binds here the optional hooks its configuration needs."""
        self.system = system

    def make_store(self, node):
        """Build the node's versioned store.

        Every protocol keeps at most three live versions of an item, so
        its store refuses a fourth (the three-slot rule in
        :mod:`repro.storage.mvstore`); only the manual-versioning
        baseline overrides this.
        """
        return MVStore(three_slots=True)

    def init_node(self, node) -> None:
        """Attach protocol-specific state to a freshly built node."""

    def on_recover(self, node) -> None:
        """The node came back from a fail-stop crash.

        Called before its mailbox thaws.  The node's store, counter table
        and protocol tables are durable and survived the crash as they
        were; plugins re-arm whatever protocol state needs it (3V
        re-ensures its active counter rows, restarts its lease clock and
        re-checks NC3V admission gates).  The default is a no-op: in-doubt
        two-phase transactions resolve as the thawed mailbox drains.
        """

    # ------------------------------------------------------------------
    # Root admission and version assignment
    # ------------------------------------------------------------------

    def admit_root(self, node, instance: SubtxnInstance, kind: str):
        """Admit a root: assign its version and begin the history record.

        Returns ``None`` when admission completed synchronously, or a
        wait that admits the root once its admission gate opens.
        """
        arrived_at = node.sim.now
        gate = self.admission_gate(node, instance, kind)
        if gate is not None:
            return functools.partial(
                self._gated_admission, node, instance, kind, arrived_at, gate)
        self._admit(node, instance, kind, arrived_at)
        return None

    def _gated_admission(self, node, instance, kind, arrived_at, gate,
                         then) -> None:
        gate(functools.partial(
            self._admit, node, instance, kind, arrived_at, then))

    def _admit(self, node, instance, kind, arrived_at, then=None) -> None:
        instance.version = self.assign_version(node, kind)
        node.history.begin_txn(
            instance.txn.name, kind, instance.version, arrived_at,
            node.node_id,
        )
        node.history.waited(
            instance.txn.name, WaitReason.ADVANCEMENT,
            node.sim.now - arrived_at,
        )
        if then is not None:
            then()

    def admission_gate(self, node, instance: SubtxnInstance, kind: str):
        """Wait run before a root is admitted, or ``None`` (no gate).

        E.g. the synchronous manual-versioning variant blocks new roots
        mid-switch.
        """
        return None

    def assign_version(self, node, kind: str) -> int:
        """Version for a newly arrived root transaction."""
        return 0

    def on_descendant(self, node, instance: SubtxnInstance, kind: str) -> None:
        """A non-root subtransaction arrived carrying its root's version."""

    # ------------------------------------------------------------------
    # Execution hooks
    # ------------------------------------------------------------------

    def service_time(self, node, instance: SubtxnInstance):
        """Local service time of the subtransaction, or ``None`` when it
        has none (owns the service-RNG draw discipline — baselines draw
        only when the subtransaction has ops)."""
        ops = instance.spec.ops
        if not ops:
            return None
        service = node.rngs.sample("node.service", node.config.op_service)
        return service * len(ops)

    def execute_ops(self, node, instance: SubtxnInstance, kind: str) -> None:
        """Run the instance's local read/write operations."""
        version = instance.version
        history = node.history
        keeps_writes = history.keeps_writes
        store = node.store
        txn = instance.txn.name
        for op in instance.spec.ops:
            if op.__class__ is ReadOp:
                used = store.version_max_leq(op.key, version)
                value = (
                    store.get_exact(op.key, used) if used is not None
                    else None
                )
                history.read(node.sim.now, txn, instance.sid, node.node_id,
                             op.key, version, used, value)
            elif kind == TxnKind.READ:
                raise ProtocolError(
                    f"read-only transaction {txn!r} attempted a write"
                )
            else:
                store.write_exact(op.key, version, op.operation)
                if keeps_writes:
                    history.wrote(node.sim.now, txn, instance.sid,
                                  node.node_id, op.key, version, 1,
                                  op.operation)

    def apply_inverses(self, node, instance: SubtxnInstance) -> None:
        """Apply the compensating (inverse) writes of a subtransaction."""
        for op in reversed(instance.spec.ops):
            if op.__class__ is ReadOp:
                continue
            inverse = op.operation.inverse()
            node.store.write_exact(op.key, instance.version, inverse)
            if node.history.keeps_writes:
                node.history.wrote(
                    node.sim.now, instance.txn.name, instance.sid,
                    node.node_id, op.key, instance.version, 1, inverse,
                    compensating=True)

    # ------------------------------------------------------------------
    # Commit / completion participation
    # ------------------------------------------------------------------

    def note_request(self, node, version, target: str) -> None:
        """Called right before each child/compensator send (3V increments
        its request counter here — Section 4.1 step 5)."""

    # ------------------------------------------------------------------
    # Control messages
    # ------------------------------------------------------------------

    def handle_message(self, node, message: Message) -> None:
        """Handle a protocol-specific control message."""
        raise ProtocolError(
            f"node {node.node_id}: unexpected message kind {message.kind!r}"
        )
