"""The 3V protocol plugin (Sections 4.1 and 4.2 of the paper).

Each node owns a multi-version store, a request/completion counter table,
its current update version ``vu`` and read version ``vr``, and a local
executor modelling local concurrency control.  The generic node mechanism
(message dispatch, executor, completion notices, compensation routing) lives
in :mod:`repro.runtime`; this module supplies the 3V policy:

* root subtransactions — assigned ``V(T) = vu`` (updates) or ``V(T) = vr``
  (queries) on arrival;
* descendant subtransactions — carrying ``V(T)`` from their root; an update
  descendant with ``V(T) > vu`` acts as an implicit start-advancement
  notification (Section 2.2);
* request counters incremented before every child/compensator send and
  completion counters incremented per Table 1's hierarchical timing (or
  the literal Section 4.1 step 6 "immediate" timing — an ablation);
* the dual-write rule for straggler subtransactions (Section 4.1 step 4);
* version-advancement control messages from the coordinator (Section 4.3).

The user-visible commitment of a subtransaction happens right after its
local operations and child dispatch (no waiting for anything non-local:
Theorem 4.2).  *Completion* — the counter increment — is hierarchical: a
subtransaction's completion counter is incremented only after all its
descendants complete, matching Table 1 of the paper (the ``C1pq = 1``
increments appear only after the corresponding subtree's completion
notices arrive).  Hierarchical completion keeps the quiescence check
conservative and correct.
"""

from __future__ import annotations

import functools

from repro.errors import ProtocolError
from repro.net.message import Message, MessageKind
from repro.runtime.config import NodeConfig
from repro.runtime.node import ProtocolNode
from repro.runtime.plugin import ProtocolPlugin
from repro.sim.distributions import Constant
from repro.storage.counters import CounterTable
from repro.storage.locktable import LockMode
from repro.txn.history import TxnKind, WaitReason
from repro.txn.runtime import SubtxnInstance
from repro.txn.spec import ReadOp, WriteOp

#: A 3V node is the shared runtime node; all protocol state the plugin
#: attaches (``counters``, ``vu``, ``vr``, ``nc3v``) lives on it.
ThreeVNode = ProtocolNode

__all__ = ["NodeConfig", "ThreeVNode", "ThreeVPlugin"]


class ThreeVPlugin(ProtocolPlugin):
    """Protocol policy for 3V (and, when enabled, its NC3V extension)."""

    def __init__(self, allow_noncommuting: bool = False):
        super().__init__()
        self.allow_noncommuting = allow_noncommuting

    # ------------------------------------------------------------------
    # System / node integration
    # ------------------------------------------------------------------

    def bind(self, system) -> None:
        super().bind(system)
        config = system.config
        if self.allow_noncommuting:
            config.enable_locking = True
            self.takeover = self._divert_noncommuting
        if config.enable_locking:
            self.pre_execute = self._commute_locks
            self.on_root_complete = self._release_locks_everywhere
        # Step 6 increments C[V(T)][source] as soon as the children are
        # dispatched ("immediate", Section 4.1 literally) or only once
        # every descendant has completed (hierarchical, Table 1's timing).
        if config.completion == "immediate":
            self.on_subtxn_executed = self._count_completion
        else:
            self.on_instance_complete = self._count_completion

    def init_node(self, node) -> None:
        node.counters = CounterTable(node.node_id)
        node.vu = node.config.initial_update_version
        node.vr = node.config.initial_read_version
        node.counters.ensure_version(node.vr)
        node.counters.ensure_version(node.vu)
        #: Versions for which a start-advancement was already processed.
        node._advanced_to = {node.vu}
        #: Highest coordinator epoch witnessed — requests stamped with an
        #: older epoch come from a dead incarnation and are fenced.
        node.coord_epoch = 0
        #: Simulation time of the last coordinator sign of life (any
        #: epoch-stamped request or heartbeat); standby monitors compare
        #: this against the lease to decide on a takeover.
        node._coord_seen = 0.0
        # Hook the NC3V extension (only in mixed deployments).
        if self.allow_noncommuting:
            from repro.core.nc3v import NC3VManager

            node.nc3v = NC3VManager(node)
        else:
            node.nc3v = None

    def on_recover(self, node) -> None:
        # The counter table, the store, vu/vr and the advancement
        # bookkeeping are durable and survived the crash as they were.
        # Re-ensure the rows of the active version window (defensive
        # against a crash landing between a version bump and its
        # ensure_version) and re-check NC3V's admission gate so any gated
        # roots re-evaluate against the recovered state.
        for version in range(node.vr, node.vu + 1):
            node.counters.ensure_version(version)
        # Restart the lease clock: the backlog this node is about to drain
        # may be arbitrarily old, and a recovering node must not instantly
        # declare the coordinator dead on stale evidence.
        node._coord_seen = node.sim.now
        if node.nc3v is not None:
            node.nc3v.on_read_advance()

    # ------------------------------------------------------------------
    # Lifecycle hooks (Sections 4.1 / 4.2)
    # ------------------------------------------------------------------

    def _divert_noncommuting(self, node, instance: SubtxnInstance,
                             kind: str):
        """``takeover`` under NC3V: a non-commuting transaction runs on the
        two-phase engine (Section 5)."""
        if kind != TxnKind.NONCOMMUTING:
            return None
        return functools.partial(node.nc3v.run_subtxn, instance)

    def admit_root(self, node, instance: SubtxnInstance, kind: str):
        version = node.vr if kind == TxnKind.READ else node.vu
        instance.version = version
        # Step 1: a root arrival is a request from p to p.
        node.counters.inc_request(version, node.node_id)
        node.history.begin_txn(
            instance.txn.name, kind, version, node.sim.now, node.node_id
        )
        return None

    def on_descendant(self, node, instance: SubtxnInstance, kind: str) -> None:
        # Step 2: an update descendant from the future is an implicit
        # start-advancement notification.
        if kind == TxnKind.UPDATE and instance.version > node.vu:
            self.advance_update_version(node, instance.version)

    def _commute_locks(self, node, instance: SubtxnInstance, kind: str):
        """``pre_execute`` with locking on (mixed NC3V deployments): a
        well-behaved update takes its commute locks."""
        if kind == TxnKind.UPDATE:
            return _CommuteLocks(node, instance)
        return None

    def service_time(self, node, instance: SubtxnInstance):
        # One draw per subtransaction, ops or not; a constant draws nothing
        # from the stream, so it is read without a call.
        op_service = node.config.op_service
        if op_service.__class__ is Constant:
            service = op_service.value
        else:
            service = op_service.sample(node._service_rng)
        ops = instance.spec.ops
        return service * len(ops) if ops else None

    def execute_ops(self, node, instance: SubtxnInstance, kind: str) -> None:
        version = instance.version
        # A history that keeps no read events needs no ``version_used``,
        # so the read is one store call; one that keeps no write events
        # is not called per write at all, on the hottest loop in the
        # system.
        history = node.history
        keeps_reads = history.keeps_reads
        keeps_writes = history.keeps_writes
        store = node.store
        # Step 4 is one store call: check/create x(V(T)), then update all
        # versions >= V(T) (the dual-write rule for stragglers), or only
        # x(V(T)) with dual writes off.
        write = store.write if node.config.dual_write else store.write_exact
        txn = instance.txn.name
        for op in instance.spec.ops:
            if op.__class__ is ReadOp:
                if keeps_reads:
                    used = store.version_max_leq(op.key, version)
                    value = (
                        store.get_exact(op.key, used) if used is not None
                        else None
                    )
                else:
                    used = None
                    value = store.read_max_leq(op.key, version, default=None)
                history.read(node.sim.now, txn, instance.sid, node.node_id,
                             op.key, version, used, value)
            elif kind == TxnKind.READ:
                raise ProtocolError(
                    f"read-only transaction {txn!r} attempted a write"
                )
            else:
                written = write(op.key, version, op.operation)
                if keeps_writes:
                    history.wrote(node.sim.now, txn, instance.sid,
                                  node.node_id, op.key, version,
                                  len(written), op.operation,
                                  versions=written)

    def apply_inverses(self, node, instance: SubtxnInstance) -> None:
        version = instance.version
        for op in reversed(instance.spec.ops):
            if op.__class__ is ReadOp:
                continue
            inverse = op.operation.inverse()
            if node.config.dual_write:
                written = node.store.write(op.key, version, inverse)
            else:
                written = node.store.write_exact(op.key, version, inverse)
            if node.history.keeps_writes:
                node.history.wrote(
                    node.sim.now, instance.txn.name, instance.sid,
                    node.node_id, op.key, version, len(written), inverse,
                    compensating=True, versions=written)

    # ------------------------------------------------------------------
    # Counter participation (Section 4.1 steps 5 / 6)
    # ------------------------------------------------------------------

    def note_request(self, node, version, target: str) -> None:
        node.counters.inc_request(version, target)

    def _count_completion(self, node, instance: SubtxnInstance) -> None:
        """``on_subtxn_executed`` or ``on_instance_complete``, whichever the
        completion timing names (see :meth:`bind`)."""
        node.counters.inc_completion(instance.version, instance.source_node)

    def _release_locks_everywhere(self, node, instance: SubtxnInstance) -> None:
        """``on_root_complete`` with locking on: the asynchronous clean-up
        phase releases an update's commute locks on every node the
        transaction touched (Section 5)."""
        if instance.txn.is_read_only:
            return
        for target in instance.txn.nodes:
            if target == node.node_id:
                node.locks.release_all(instance.txn.name)
            else:
                node.network.send(
                    node.node_id, target, MessageKind.LOCK_RELEASE,
                    instance.txn.name,
                )

    # ------------------------------------------------------------------
    # Version advancement handlers (node side of Section 4.3)
    # ------------------------------------------------------------------

    def advance_update_version(self, node, new_version: int) -> None:
        """Advance ``vu`` (explicit notification or inferred from traffic)."""
        if new_version <= node.vu:
            return
        for version in range(node.vu + 1, new_version + 1):
            node.counters.ensure_version(version)
            node._advanced_to.add(version)
        node.vu = new_version

    def handle_message(self, node, message: Message) -> None:
        kind = message.kind
        if kind == MessageKind.START_ADVANCEMENT:
            self._on_start_advancement(node, message)
        elif kind == MessageKind.COUNTER_READ:
            self._on_counter_read(node, message)
        elif kind == MessageKind.READ_ADVANCE:
            self._on_read_advance(node, message)
        elif kind == MessageKind.GARBAGE_COLLECT:
            self._on_garbage_collect(node, message)
        elif kind == MessageKind.COORDINATOR_HEARTBEAT:
            self._fence_stale_epoch(node, message.payload[0])
        elif kind == MessageKind.LOCK_RELEASE:
            node.locks.release_all(message.payload)
        elif node.nc3v is not None and node.nc3v.handles(kind):
            node.nc3v.dispatch(message)
        else:
            super().handle_message(node, message)

    def _fence_stale_epoch(self, node, epoch: int) -> bool:
        """Fence a coordinator request from a dead incarnation.

        Returns ``True`` (and counts the drop) when the request's epoch
        is older than the highest this node has witnessed; otherwise
        records the epoch and the coordinator's sign of life and lets the
        request through.  Dropping without a reply is safe because a live
        successor re-runs its wave from the top and re-requests anything
        it still needs.
        """
        if epoch < node.coord_epoch:
            node.network.stats.stale_epoch_dropped += 1
            return True
        node.coord_epoch = epoch
        node._coord_seen = node.sim.now
        return False

    def _on_start_advancement(self, node, message: Message) -> None:
        epoch, new_version = message.payload
        if self._fence_stale_epoch(node, epoch):
            return
        self.advance_update_version(node, new_version)
        node.network.send(
            node.node_id, message.src, MessageKind.START_ADVANCEMENT_ACK,
            (node.node_id, new_version, epoch),
        )

    def _on_counter_read(self, node, message: Message) -> None:
        epoch, version, which = message.payload
        if self._fence_stale_epoch(node, epoch):
            return
        # Snapshot assembly: the zero-copy views locate the live row, and
        # dict() materializes the point-in-time copy HERE, at the node's
        # read time.  The reply payload must never alias the live row — the
        # two-wave detector's soundness argument pins each wave's values to
        # the moment the node processed the COUNTER_READ (see
        # CounterTable.requests_view).
        if which == "RT":
            # Aggregate wave (production two-wave detector): one scalar —
            # the incrementally-maintained total — instead of a row copy.
            snapshot = node.counters.request_total(version)
        elif which == "CT":
            snapshot = node.counters.completion_total(version)
        elif which == "R":
            snapshot = dict(node.counters.requests_view(version))
        elif which == "C":
            snapshot = dict(node.counters.completions_view(version))
        elif which == "ACTIVE":
            # Support for the naive ActivePollDetector ablation: how many
            # subtransactions of this version are *executing right now* —
            # the strawman check of Section 2.2, blind to committed parents
            # whose children are still in transit.
            active = sum(
                1
                for instance in node._live
                if instance.version == version and not instance.executed
            )
            snapshot = {node.node_id: active}
        else:
            raise ProtocolError(f"bad counter read request: {which!r}")
        node.network.send(
            node.node_id, message.src, MessageKind.COUNTER_READ_REPLY,
            (node.node_id, version, which, snapshot, epoch),
        )

    def _on_read_advance(self, node, message: Message) -> None:
        epoch, new_version = message.payload
        if self._fence_stale_epoch(node, epoch):
            return
        if new_version > node.vr:
            node.vr = new_version
            node.counters.ensure_version(new_version)
            if node.nc3v is not None:
                node.nc3v.on_read_advance()
        node.network.send(
            node.node_id, message.src, MessageKind.READ_ADVANCE_ACK,
            (node.node_id, new_version, epoch),
        )

    def _on_garbage_collect(self, node, message: Message) -> None:
        epoch, new_read_version = message.payload
        if self._fence_stale_epoch(node, epoch):
            return
        node.store.collect(new_read_version)
        node.counters.gc_below(new_read_version)
        node.network.send(
            node.node_id, message.src, MessageKind.GARBAGE_COLLECT_ACK,
            (node.node_id, new_read_version, epoch),
        )


class _CommuteLocks:
    """The wait that takes a well-behaved update's CR/CW locks, one op at
    a time (Section 5).  A request wait-die refuses is retried after a
    beat, keeping the locks held (wound-free retry), so well-behaved
    transactions never abort; the retries count as lock-wait time."""

    __slots__ = ("node", "instance", "then", "timestamp", "index",
                 "queued_at")

    def __init__(self, node, instance: SubtxnInstance):
        self.node = node
        self.instance = instance
        self.timestamp = node.history.txns[instance.txn.name].submit_time
        self.index = 0

    def __call__(self, then) -> None:
        self.then = then
        self._next_op()

    def _next_op(self) -> None:
        if self.index == len(self.instance.spec.ops):
            self.then()
            return
        self.queued_at = self.node.sim.now
        self._request()

    def _request(self) -> None:
        op = self.instance.spec.ops[self.index]
        mode = LockMode.CW if isinstance(op, WriteOp) else LockMode.CR
        self.node.locks.acquire(
            op.key, mode, self.instance.txn.name, self.timestamp
        ).add_callback(self._answered)

    def _answered(self, request) -> None:
        node = self.node
        if request.exception is not None:
            # Refused by wait-die (DeadlockAbort): retry after a beat.
            node.sim.schedule(
                node.rngs.sample("node.lock-retry", node.config.op_service),
                self._request,
            )
            return
        node.history.waited(
            self.instance.txn.name, WaitReason.LOCK,
            node.sim.now - self.queued_at,
        )
        self.index += 1
        self._next_op()
