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

from repro.errors import DeadlockAbort, ProtocolError
from repro.net.message import Message, MessageKind
from repro.runtime.config import NodeConfig
from repro.runtime.node import ProtocolNode
from repro.runtime.plugin import ProtocolPlugin
from repro.storage.counters import CounterTable
from repro.storage.locktable import LockMode
from repro.txn.history import (
    ReadEvent,
    TxnKind,
    WaitReason,
    WriteEvent,
)
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
        if self.allow_noncommuting:
            system.config.enable_locking = True

    def make_store(self, node):
        return node.config.store_factory()

    def init_node(self, node) -> None:
        counters = CounterTable(node.node_id)
        if node.journal is not None:
            # Fault-injected runs: counter mutations are write-ahead
            # journaled alongside the store, so a crash loses no
            # request/completion increments (the paper's Section 6
            # "standard logging techniques" for the counter state the
            # termination-detection proof depends on).
            from repro.storage.wal import JournaledCounters

            node_id = node.node_id
            counters = JournaledCounters(
                counters, lambda: CounterTable(node_id)
            )
            node.journal.attach("counters", counters)
        node.counters = counters
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
        # The journal replay restored the counter tables and the store;
        # vu/vr and the advancement bookkeeping are checkpointed control
        # state.  Re-ensure the rows of the active version window
        # (defensive against a crash landing between a version bump and
        # its ensure_version) and re-check NC3V's admission gate so any
        # gated roots re-evaluate against the recovered state.
        for version in range(node.vr, node.vu + 1):
            node.counters.ensure_version(version)
        # Restart the lease clock: the backlog this node is about to drain
        # may be arbitrarily old, and a recovering node must not instantly
        # declare the coordinator dead on stale evidence.
        node._coord_seen = node.sim.now
        if node.nc3v is not None:
            node.nc3v.on_recover()
            node.nc3v.on_read_advance()

    # ------------------------------------------------------------------
    # Lifecycle hooks (Sections 4.1 / 4.2)
    # ------------------------------------------------------------------

    def takeover(self, node, instance: SubtxnInstance, kind: str):
        if kind != TxnKind.NONCOMMUTING:
            return None
        if node.nc3v is None:
            raise ProtocolError(
                f"node {node.node_id}: non-commuting transaction "
                f"{instance.txn.name!r} but NC3V is not enabled"
            )
        return node.nc3v.run_subtxn(instance)

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

    def pre_execute(self, node, instance: SubtxnInstance, kind: str):
        # Commute locks (only in mixed NC3V deployments).
        if node.config.enable_locking and kind == TxnKind.UPDATE:
            return self._acquire_commute_locks(node, instance)
        return None

    def _acquire_commute_locks(self, node, instance: SubtxnInstance):
        """Take CR/CW locks for every op (Section 5; retry-on-die keeps
        well-behaved transactions abort-free)."""
        spec = instance.spec
        requests = []
        for op in spec.ops:
            if isinstance(op, WriteOp):
                requests.append((op.key, LockMode.CW))
            else:
                requests.append((op.key, LockMode.CR))
        timestamp = node.history.txns[instance.txn.name].submit_time
        for key, mode in requests:
            queued_at = node.sim.now
            while True:
                event = node.locks.acquire(key, mode, instance.txn.name, timestamp)
                try:
                    yield event
                except DeadlockAbort:
                    # Wait-die killed the request; retry after a beat.  The
                    # transaction keeps its other locks (wound-free retry),
                    # and the whole retry loop counts as lock-wait time.
                    yield node.sim.timeout(
                        node.rngs.sample("node.lock-retry", node.config.op_service)
                    )
                    continue
                break
            node.history.waited(
                instance.txn.name, WaitReason.LOCK, node.sim.now - queued_at
            )

    def service_time(self, node, instance: SubtxnInstance):
        # One draw per subtransaction, ops or not.
        service = node.config.op_service.sample(node._service_rng)
        ops = instance.spec.ops
        return service * len(ops) if ops else None

    def execute_ops(self, node, instance: SubtxnInstance, kind: str) -> None:
        version = instance.version
        # Event objects are built only when the history keeps them; with
        # detail off (large benchmark runs) reads record just their
        # (key, value), and a history that drops write events (detail off,
        # or streaming) is not handed any, skipping one dataclass
        # allocation per operation on the hottest loop in the system.
        detail = node.history.detail
        keeps_writes = node.history.keeps_writes
        store = node.store
        for op in instance.spec.ops:
            if isinstance(op, ReadOp):
                if detail:
                    used = store.version_max_leq(op.key, version)
                    value = (
                        store.get_exact(op.key, used) if used is not None
                        else None
                    )
                    node.history.read(
                        ReadEvent(
                            time=node.sim.now,
                            txn=instance.txn.name,
                            subtxn=instance.sid,
                            node=node.node_id,
                            key=op.key,
                            version_requested=version,
                            version_used=used,
                            value=value,
                        )
                    )
                else:
                    value = store.read_max_leq(op.key, version, default=None)
                    node.history.note_read(instance.txn.name, op.key, value)
            elif isinstance(op, WriteOp):
                if kind == TxnKind.READ:
                    raise ProtocolError(
                        f"read-only transaction {instance.txn.name!r} "
                        "attempted a write"
                    )
                # Step 4: atomically check/create x(V(T)), then update all
                # versions >= V(T) (the dual-write rule for stragglers).
                store.ensure_version(op.key, version)
                if node.config.dual_write:
                    written = store.apply_geq(op.key, version, op.operation)
                else:
                    store.apply_exact(op.key, version, op.operation)
                    written = (version,)
                if keeps_writes:
                    node.history.wrote(
                        WriteEvent(
                            time=node.sim.now,
                            txn=instance.txn.name,
                            subtxn=instance.sid,
                            node=node.node_id,
                            key=op.key,
                            version=version,
                            versions_written=len(written),
                            operation=op.operation,
                            versions=written,
                        )
                    )

    def apply_inverses(self, node, instance: SubtxnInstance) -> None:
        version = instance.version
        for op in reversed(instance.spec.ops):
            if not isinstance(op, WriteOp):
                continue
            inverse = op.operation.inverse()
            node.store.ensure_version(op.key, version)
            if node.config.dual_write:
                written = node.store.apply_geq(op.key, version, inverse)
            else:
                node.store.apply_exact(op.key, version, inverse)
                written = (version,)
            if not node.history.keeps_writes:
                continue
            node.history.wrote(
                WriteEvent(
                    time=node.sim.now,
                    txn=instance.txn.name,
                    subtxn=instance.sid,
                    node=node.node_id,
                    key=op.key,
                    version=version,
                    versions_written=len(written),
                    operation=inverse,
                    compensating=True,
                    versions=written,
                )
            )

    # ------------------------------------------------------------------
    # Counter participation (Section 4.1 steps 5 / 6)
    # ------------------------------------------------------------------

    def note_request(self, node, version, target: str) -> None:
        node.counters.inc_request(version, target)

    def on_subtxn_executed(self, node, instance: SubtxnInstance) -> None:
        if node.config.completion == "immediate":
            # Section 4.1 step 6, literally: increment C and terminate as
            # soon as the children have been dispatched.
            node.counters.inc_completion(instance.version, instance.source_node)

    def on_instance_complete(self, node, instance: SubtxnInstance) -> None:
        if node.config.completion != "immediate":
            # Step 6: atomically increment C[V(T)][source] and terminate.
            # In hierarchical mode this happens only once every descendant
            # has completed (Table 1's timing).
            node.counters.inc_completion(instance.version, instance.source_node)

    def on_root_complete(self, node, instance: SubtxnInstance) -> None:
        if node.config.enable_locking and not instance.txn.is_read_only:
            self._release_locks_everywhere(node, instance)

    def _release_locks_everywhere(self, node, instance: SubtxnInstance) -> None:
        """Asynchronous clean-up phase: release commute locks on every node
        the transaction touched (Section 5)."""
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
        elif which == "RV":
            # Differential-verify wave: total and row from the same
            # atomic moment, so the coordinator can cross-check them.
            snapshot = (
                node.counters.request_total(version),
                dict(node.counters.requests_view(version)),
            )
        elif which == "CV":
            snapshot = (
                node.counters.completion_total(version),
                dict(node.counters.completions_view(version)),
            )
        elif which == "ACTIVE":
            # Support for the naive ActivePollDetector ablation: how many
            # subtransactions of this version are *executing right now* —
            # the strawman check of Section 2.2, blind to committed parents
            # whose children are still in transit.
            active = sum(
                1
                for tracker in node._trackers.values()
                if tracker.instance.version == version and not tracker.executed
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
