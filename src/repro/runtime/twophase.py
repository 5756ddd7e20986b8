"""Shared two-phase-commit machinery (used by NC3V *and* the 2PC baseline).

Both "global synchronization" protocols in this repository run the same
distributed commit: subtransactions execute under NR/NW two-phase locking
with wait-die, report their outcome to the root, and the root drives a
PREPARE/VOTE round followed by a DECISION/ACK round, rolling back from
per-participant undo logs on abort.  Historically the repo kept two copies
of that machinery (``core/nc3v.py`` and ``baselines/twopc.py``); this
module is the single implementation, with small subclass hooks for the
parts that genuinely differ:

* how a root is admitted (NC3V assigns ``V(K) = vu``, increments request
  counters, and gates on ``vu == vr + 1``; 2PC runs everything at
  version 0);
* version-conflict checking before writes (NC3V's Section 5 step 4; the
  2PC baseline has no versions to conflict with);
* completion-counter participation and undo-event recording (NC3V only);
* what happens after the root finishes (the 2PC baseline schedules
  retries).

The engine is per-node: each node of a system owns one instance, playing
participant for every transaction that executes locally and coordinator
for the transactions rooted at it.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import ProtocolError
from repro.net.message import Message, MessageKind
from repro.sim.events import after_trigger
from repro.storage.locktable import LockMode
from repro.storage.values import Operation, undo_operation
from repro.txn.history import WaitReason
from repro.txn.runtime import SubtxnInstance
from repro.txn.spec import ReadOp, WriteOp


@dataclasses.dataclass
class UndoEntry:
    """One write to reverse if the transaction aborts."""

    key: typing.Hashable
    version: int
    undo: Operation


@dataclasses.dataclass
class ParticipantState:
    """Per-transaction state on a node that executed its subtransactions."""

    txn_name: str
    version: int
    undo_log: typing.List[UndoEntry] = dataclasses.field(default_factory=list)
    #: ``(sid, source_node)`` for every subtransaction executed here.
    executed: typing.List[typing.Tuple[str, str]] = dataclasses.field(
        default_factory=list
    )
    failed: bool = False


class TwoPhaseEngine:
    """Per-node participant + coordinator for two-phase commitment."""

    _KINDS = frozenset(
        {MessageKind.PREPARE, MessageKind.VOTE, MessageKind.DECISION,
         MessageKind.DECISION_ACK}
    )
    #: payload tag distinguishing execution reports from 2PC votes.
    _EXEC_REPORT = "exec-report"
    _PREPARE_VOTE = "prepare-vote"
    #: history abort reason recorded when the decision is "abort".
    abort_reason = "2pc-abort"

    def __init__(self, node):
        self.node = node
        self._participants: typing.Dict[str, ParticipantState] = {}
        #: The run of every root transaction this node coordinates.
        self._roots: typing.Dict[str, "SubtxnRun"] = {}

    # ------------------------------------------------------------------
    # Protocol hooks (overridden by NC3V / the 2PC baseline)
    # ------------------------------------------------------------------

    def admit_root(self, instance: SubtxnInstance):
        """Assign the root's version and begin its history record.

        Returns ``None``, or a wait to sit out (NC3V's version gate; see
        :mod:`repro.runtime.plugin` for the shape of a wait).
        """
        node = self.node
        instance.version = 0
        node.history.begin_txn(
            instance.txn.name, instance.txn.kind, 0,
            node.sim.now, node.node_id,
        )
        return None

    def note_request(self, version, target: str) -> None:
        """Request accounting before each child send (NC3V counters)."""

    def check_version_conflict(self, instance: SubtxnInstance) -> bool:
        """Section 5 step 4 (NC3V): abort if a newer version diverged."""
        return False

    def record_undo_event(self, txn_name: str, entry: UndoEntry) -> None:
        """History record for one rollback write (NC3V only)."""

    def after_decision(self, state: ParticipantState) -> None:
        """Per-participant accounting atomic with the decision (NC3V's
        completion-counter increments — Section 5, step 6)."""

    def on_finished(self, instance: SubtxnInstance, committed: bool) -> None:
        """The root's transaction finished (the 2PC baseline retries)."""

    # ------------------------------------------------------------------
    # Node integration
    # ------------------------------------------------------------------

    def handles(self, kind: str) -> bool:
        return kind in self._KINDS

    def dispatch(self, message: Message) -> None:
        if message.kind == MessageKind.PREPARE:
            self._on_prepare(message)
        elif message.kind == MessageKind.VOTE:
            self._on_vote(message)
        elif message.kind == MessageKind.DECISION:
            self._on_decision(message)
        elif message.kind == MessageKind.DECISION_ACK:
            self._on_decision_ack(message)

    # ------------------------------------------------------------------
    # Subtransaction execution
    # ------------------------------------------------------------------

    def run_subtxn(self, instance: SubtxnInstance, then) -> None:
        """The ``takeover`` lifecycle: run ``instance`` here under 2PL and
        two-phase commitment, and call ``then()`` once its part is over."""
        SubtxnRun(self, instance, then)

    def _apply_ops(self, instance: SubtxnInstance,
                   state: ParticipantState) -> None:
        """The local operations, under the held locks, with undo entries."""
        node = self.node
        txn_name = instance.txn.name
        version = instance.version
        for op in instance.spec.ops:
            if isinstance(op, ReadOp):
                used = node.store.version_max_leq(op.key, version)
                value = (
                    node.store.get_exact(op.key, used)
                    if used is not None else None
                )
                node.history.read(node.sim.now, txn_name, instance.sid,
                                  node.node_id, op.key, version, used, value)
            else:
                # The value x(V(T)) holds, or is created with, before
                # this write.
                previous = node.store.read_max_leq(op.key, version,
                                                   default=None)
                undo = undo_operation(op.operation, previous)
                node.store.write_exact(op.key, version, op.operation)
                state.undo_log.append(UndoEntry(op.key, version, undo))
                if node.history.keeps_writes:
                    node.history.wrote(node.sim.now, txn_name, instance.sid,
                                       node.node_id, op.key, version, 1,
                                       op.operation)

    def _root_timestamp(self, instance: SubtxnInstance) -> float:
        record = self.node.history.txns.get(instance.txn.name)
        if record is not None:
            return record.submit_time
        return instance.txn.priority_hint

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------

    def _on_vote(self, message: Message) -> None:
        tag = message.payload[0]
        if tag == self._EXEC_REPORT:
            _tag, txn_name, sid, participant, ok, dispatched = message.payload
            run = self._root(txn_name, "exec report")
            run.outstanding.discard(sid)
            run.outstanding.update(dispatched)
            run.participants.add(participant)
            if not ok:
                run.any_failure = True
            if not run.outstanding:
                run.wake("reports", run._reported)
        elif tag == self._PREPARE_VOTE:
            _tag, txn_name, participant, vote_yes = message.payload
            run = self._root(txn_name, "vote")
            run.votes.add(participant)
            if not vote_yes:
                run.vote_no = True
            if run.votes >= run.remote:
                run.wake("votes", run._voted)
        else:
            raise ProtocolError(f"unknown vote tag {tag!r}")

    def _root(self, txn_name: str, what: str) -> "SubtxnRun":
        run = self._roots.get(txn_name)
        if run is None:
            raise ProtocolError(f"{what} for unknown root {txn_name!r}")
        return run

    def _on_prepare(self, message: Message) -> None:
        txn_name = message.payload
        state = self._participants.get(txn_name)
        vote_yes = state is not None and not state.failed
        self.node.network.send(
            self.node.node_id, message.src, MessageKind.VOTE,
            (self._PREPARE_VOTE, txn_name, self.node.node_id, vote_yes),
        )

    def _on_decision(self, message: Message) -> None:
        txn_name, commit = message.payload
        self._apply_decision_locally(txn_name, commit)
        self.node.network.send(
            self.node.node_id, message.src, MessageKind.DECISION_ACK,
            (txn_name, self.node.node_id),
        )

    def _on_decision_ack(self, message: Message) -> None:
        txn_name, participant = message.payload
        run = self._root(txn_name, "decision ack")
        run.acks.add(participant)
        if run.acks >= run.remote:
            run.wake("acks", run._acked)

    def _apply_decision_locally(self, txn_name: str, commit: bool) -> None:
        """Commit or roll back this node's part, release locks, and run the
        per-participant accounting atomically with the decision."""
        node = self.node
        state = self._participants.pop(txn_name, None)
        if state is None:
            return
        if not commit:
            for entry in reversed(state.undo_log):
                node.store.apply_exact(entry.key, entry.version, entry.undo)
                self.record_undo_event(txn_name, entry)
        self.after_decision(state)
        node.locks.release_all(txn_name)
        node.locks.cancel_waits(txn_name)


class SubtxnRun:
    """One subtransaction's two-phase lifecycle on one node, as explicit
    state: admission (NC3V's version gate), the NR/NW locks one op at a
    time (``index``; one that wait-die refuses fails the subtransaction),
    the executor and the service time, then the version check and the
    operations.  A non-root then reports to its root.  A root coordinates
    through ``phase`` ``"reports"`` (every execution report), ``"votes"``
    (the PREPARE round, when there are remote participants) and
    ``"acks"`` (every DECISION_ACK), woken by the engine's handlers.
    """

    __slots__ = ("engine", "instance", "then", "state", "timestamp",
                 "index", "queued_at", "phase", "outstanding",
                 "participants", "any_failure", "remote", "votes",
                 "vote_no", "acks", "commit", "remote_wait_start")

    def __init__(self, engine: TwoPhaseEngine, instance: SubtxnInstance,
                 then):
        self.engine = engine
        self.instance = instance
        self.then = then
        gate = engine.admit_root(instance) if instance.is_root else None
        if gate is None:
            self._admitted()
        else:
            gate(self._admitted)

    def _admitted(self) -> None:
        engine = self.engine
        instance = self.instance
        txn_name = instance.txn.name
        state = engine._participants.get(txn_name)
        if state is None:
            state = ParticipantState(txn_name=txn_name,
                                     version=instance.version)
            engine._participants[txn_name] = state
        self.state = state
        self.timestamp = engine._root_timestamp(instance)
        self.index = 0
        self._lock_next()

    # -- local execution -----------------------------------------------

    def _lock_next(self) -> None:
        node = self.engine.node
        ops = self.instance.spec.ops
        self.queued_at = node.sim.now
        if self.index < len(ops):
            op = ops[self.index]
            mode = LockMode.NW if isinstance(op, WriteOp) else LockMode.NR
            node.locks.acquire(
                op.key, mode, self.instance.txn.name, self.timestamp
            ).add_callback(self._locked)
        elif node.executor.acquire(self._executing):
            after_trigger(node.sim, self._executing)

    def _locked(self, request) -> None:
        node = self.engine.node
        if request.exception is not None:
            # Refused by wait-die (DeadlockAbort).
            self._executed(False)
            return
        node.history.waited(
            self.instance.txn.name, WaitReason.LOCK,
            node.sim.now - self.queued_at,
        )
        self.index += 1
        self._lock_next()

    def _executing(self) -> None:
        node = self.engine.node
        ops = self.instance.spec.ops
        node.history.waited(
            self.instance.txn.name, WaitReason.EXECUTOR,
            node.sim.now - self.queued_at,
        )
        if ops:
            service = node.rngs.sample("node.service", node.config.op_service)
            node.sim.schedule(service * len(ops), self._serve)
        else:
            self._serve()

    def _serve(self) -> None:
        engine = self.engine
        try:
            # A version conflict (NC3V's step 4) fails the subtransaction.
            ok = not engine.check_version_conflict(self.instance)
            if ok:
                engine._apply_ops(self.instance, self.state)
        finally:
            engine.node.executor.release()
        self._executed(ok)

    def _executed(self, ok: bool) -> None:
        """The local part is over: ``ok``, or failed (which aborts the
        whole transaction at decision time)."""
        engine = self.engine
        node = engine.node
        instance = self.instance
        self.state.executed.append((instance.sid, instance.source_node))
        if not ok:
            self.state.failed = True
        dispatched: typing.List[str] = []
        if ok:
            for child_sid, child_spec, target in instance.child_targets():
                child = instance.child(child_sid, child_spec, node.node_id)
                engine.note_request(instance.version, target)
                node.network.send(
                    node.node_id, target, MessageKind.SUBTXN_REQUEST, child
                )
                dispatched.append(child_sid)
        if instance.is_root:
            self._coordinate(ok, dispatched)
            return
        # Report execution outcome (and what was dispatched) to the
        # root, which sent the first envelope from its own node.
        root = instance.parent
        while root.parent is not None:
            root = root.parent
        node.network.send(
            node.node_id, root.source_node, MessageKind.VOTE,
            (engine._EXEC_REPORT, instance.txn.name, instance.sid,
             node.node_id, ok, dispatched),
        )
        self.then()

    # -- two-phase commitment (root side) --------------------------------

    def wake(self, phase: str, step) -> None:
        """A handler completed ``phase``: take ``step`` in one scheduled
        callback, once."""
        if self.phase == phase:
            self.phase = f"{phase}-done"
            self.engine.node.sim.schedule_now(step)

    def _coordinate(self, root_ok: bool, dispatched: typing.List[str]) -> None:
        node = self.engine.node
        self.outstanding = set(dispatched)
        self.participants = {node.node_id}
        self.any_failure = not root_ok
        self.remote = set()
        self.votes, self.vote_no, self.acks = set(), False, set()
        self.engine._roots[self.instance.txn.name] = self
        self.remote_wait_start = node.sim.now
        self.phase = "reports"
        if not self.outstanding:
            self._reported()

    def _reported(self) -> None:
        node = self.engine.node
        self.remote = self.participants - {node.node_id}
        if not self.any_failure and self.remote:
            # Prepare round: every remote participant votes.
            self.phase = "votes"
            # Sorted: iteration drives message sends (and therefore
            # latency RNG draws), so set order must not leak the
            # per-process hash seed.
            for participant in sorted(self.remote):
                node.network.send(
                    node.node_id, participant, MessageKind.PREPARE,
                    self.instance.txn.name,
                )
        else:
            self._decide(not self.any_failure)

    def _voted(self) -> None:
        self._decide(not self.vote_no)

    def _decide(self, commit: bool) -> None:
        engine = self.engine
        node = engine.node
        txn_name = self.instance.txn.name
        self.commit = commit
        engine._apply_decision_locally(txn_name, commit)
        for participant in sorted(self.remote):
            node.network.send(
                node.node_id, participant, MessageKind.DECISION,
                (txn_name, commit),
            )
        node.history.waited(
            txn_name, WaitReason.REMOTE, node.sim.now - self.remote_wait_start
        )
        if commit:
            node.history.locally_committed(txn_name, node.sim.now)
        else:
            node.history.aborted(txn_name, node.sim.now, engine.abort_reason)
        self.phase = "acks"
        if not self.remote:
            self._acked()

    def _acked(self) -> None:
        engine = self.engine
        node = engine.node
        txn_name = self.instance.txn.name
        self.phase = "done"
        node.history.globally_completed(txn_name, node.sim.now)
        del engine._roots[txn_name]
        engine.on_finished(self.instance, self.commit)
        self.then()
