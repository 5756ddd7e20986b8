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

from repro.errors import DeadlockAbort, ProtocolError
from repro.net.message import Message, MessageKind
from repro.sim.events import Event
from repro.storage.locktable import LockMode
from repro.storage.values import Operation, undo_operation
from repro.txn.history import ReadEvent, WaitReason, WriteEvent
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


@dataclasses.dataclass
class RootState:
    """Two-phase-commit coordination state at the root node."""

    instance: SubtxnInstance
    #: Subtransaction ids whose execution report is still expected.
    outstanding: typing.Set[str] = dataclasses.field(default_factory=set)
    participants: typing.Set[str] = dataclasses.field(default_factory=set)
    any_failure: bool = False
    reports_done: Event = None
    votes: typing.Set[str] = dataclasses.field(default_factory=set)
    vote_no: bool = False
    votes_done: Event = None
    acks: typing.Set[str] = dataclasses.field(default_factory=set)
    acks_done: Event = None
    expected_voters: typing.Set[str] = dataclasses.field(default_factory=set)
    expected_ackers: typing.Set[str] = dataclasses.field(default_factory=set)


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
        self._roots: typing.Dict[str, RootState] = {}
        self.deadlock_aborts = 0
        self.commits = 0

    # ------------------------------------------------------------------
    # Protocol hooks (overridden by NC3V / the 2PC baseline)
    # ------------------------------------------------------------------

    def admit_root(self, instance: SubtxnInstance):
        """Assign the root's version and begin its history record.

        Returns ``None``, or a generator to wait on (NC3V's version gate).
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

    def run_subtxn(self, instance: SubtxnInstance):
        node = self.node
        txn_name = instance.txn.name
        if instance.is_root:
            gate = self.admit_root(instance)
            if gate is not None:
                yield from gate

        state = self._participants.get(txn_name)
        if state is None:
            state = ParticipantState(txn_name=txn_name,
                                     version=instance.version)
            self._participants[txn_name] = state

        ok = yield from self._execute_locally(instance, state)

        dispatched: typing.List[str] = []
        if ok:
            for child_sid, child_spec, target in instance.child_targets():
                child = instance.child(child_sid, child_spec, node.node_id)
                self.note_request(instance.version, target)
                node.network.send(
                    node.node_id, target, MessageKind.SUBTXN_REQUEST, child
                )
                dispatched.append(child_sid)

        if instance.is_root:
            yield from self._coordinate(instance, ok, dispatched)
        else:
            # Report execution outcome (and what was dispatched) to the
            # root, which sent the first envelope from its own node.
            root = instance.parent
            while root.parent is not None:
                root = root.parent
            node.network.send(
                node.node_id, root.source_node, MessageKind.VOTE,
                (self._EXEC_REPORT, txn_name, instance.sid, node.node_id,
                 ok, dispatched),
            )

    def _execute_locally(self, instance: SubtxnInstance,
                         state: ParticipantState):
        """Locks, version check, and writes for one subtransaction.

        Returns ``True`` on success, ``False`` if the subtransaction failed
        (wait-die or version conflict) — failure aborts the whole
        transaction at decision time.
        """
        node = self.node
        txn_name = instance.txn.name
        spec = instance.spec
        timestamp = self._root_timestamp(instance)

        # 2PL acquisition (NR/NW), wait-die on conflict.
        for op in spec.ops:
            mode = LockMode.NW if isinstance(op, WriteOp) else LockMode.NR
            queued_at = node.sim.now
            event = node.locks.acquire(op.key, mode, txn_name, timestamp)
            try:
                yield event
            except DeadlockAbort:
                self.deadlock_aborts += 1
                state.failed = True
                state.executed.append((instance.sid, instance.source_node))
                return False
            node.history.waited(
                txn_name, WaitReason.LOCK, node.sim.now - queued_at
            )

        queued_at = node.sim.now
        yield node.executor.request()
        node.history.waited(
            txn_name, WaitReason.EXECUTOR, node.sim.now - queued_at
        )
        try:
            if spec.ops:
                service = node.rngs.sample(
                    "node.service", node.config.op_service
                )
                yield node.sim.timeout(service * len(spec.ops))
            version = instance.version
            if self.check_version_conflict(instance):
                state.failed = True
                state.executed.append((instance.sid, instance.source_node))
                return False
            for op in spec.ops:
                if isinstance(op, ReadOp):
                    used = node.store.version_max_leq(op.key, version)
                    value = (
                        node.store.get_exact(op.key, used)
                        if used is not None else None
                    )
                    if node.history.detail:
                        node.history.read(
                            ReadEvent(
                                time=node.sim.now,
                                txn=txn_name,
                                subtxn=instance.sid,
                                node=node.node_id,
                                key=op.key,
                                version_requested=version,
                                version_used=used,
                                value=value,
                            )
                        )
                    else:
                        node.history.note_read(txn_name, op.key, value)
                else:
                    node.store.ensure_version(op.key, version)
                    previous = node.store.get_exact(op.key, version)
                    undo = undo_operation(op.operation, previous)
                    node.store.apply_exact(op.key, version, op.operation)
                    state.undo_log.append(UndoEntry(op.key, version, undo))
                    if node.history.keeps_writes:
                        node.history.wrote(
                            WriteEvent(
                                time=node.sim.now,
                                txn=txn_name,
                                subtxn=instance.sid,
                                node=node.node_id,
                                key=op.key,
                                version=version,
                                versions_written=1,
                                operation=op.operation,
                            )
                        )
        finally:
            node.executor.release()
        state.executed.append((instance.sid, instance.source_node))
        return True

    def _root_timestamp(self, instance: SubtxnInstance) -> float:
        record = self.node.history.txns.get(instance.txn.name)
        if record is not None:
            return record.submit_time
        return instance.txn.priority_hint

    # ------------------------------------------------------------------
    # Two-phase commitment (root side)
    # ------------------------------------------------------------------

    def _coordinate(self, instance: SubtxnInstance, root_ok: bool,
                    dispatched: typing.List[str]):
        node = self.node
        txn_name = instance.txn.name
        state = RootState(instance=instance)
        state.reports_done = Event(node.sim)
        state.votes_done = Event(node.sim)
        state.acks_done = Event(node.sim)
        state.outstanding = set(dispatched)
        state.participants = {node.node_id}
        state.any_failure = not root_ok
        self._roots[txn_name] = state

        remote_wait_start = node.sim.now
        if state.outstanding:
            yield state.reports_done

        decision_commit = not state.any_failure
        # Sorted: iteration drives message sends (and therefore latency RNG
        # draws), so set order must not leak the per-process hash seed.
        remote = sorted(state.participants - {node.node_id})
        if decision_commit and remote:
            # Prepare round: every remote participant votes.
            state.expected_voters = set(remote)
            for participant in remote:
                node.network.send(
                    node.node_id, participant, MessageKind.PREPARE, txn_name
                )
            yield state.votes_done
            decision_commit = not state.vote_no

        # Decision round.
        self._apply_decision_locally(txn_name, decision_commit)
        if remote:
            state.expected_ackers = set(remote)
            for participant in remote:
                node.network.send(
                    node.node_id, participant, MessageKind.DECISION,
                    (txn_name, decision_commit),
                )
        node.history.waited(
            txn_name, WaitReason.REMOTE, node.sim.now - remote_wait_start
        )
        if decision_commit:
            self.commits += 1
            node.history.locally_committed(txn_name, node.sim.now)
        else:
            node.history.aborted(txn_name, node.sim.now, self.abort_reason)
        if remote:
            yield state.acks_done
        node.history.globally_completed(txn_name, node.sim.now)
        del self._roots[txn_name]
        self.on_finished(instance, decision_commit)

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------

    def _on_vote(self, message: Message) -> None:
        tag = message.payload[0]
        if tag == self._EXEC_REPORT:
            _tag, txn_name, sid, participant, ok, dispatched = message.payload
            state = self._roots.get(txn_name)
            if state is None:
                raise ProtocolError(f"exec report for unknown root {txn_name!r}")
            state.outstanding.discard(sid)
            state.outstanding.update(dispatched)
            state.participants.add(participant)
            if not ok:
                state.any_failure = True
            if not state.outstanding and not state.reports_done.triggered:
                state.reports_done.succeed()
        elif tag == self._PREPARE_VOTE:
            _tag, txn_name, participant, vote_yes = message.payload
            state = self._roots.get(txn_name)
            if state is None:
                raise ProtocolError(f"vote for unknown root {txn_name!r}")
            state.votes.add(participant)
            if not vote_yes:
                state.vote_no = True
            if state.votes >= state.expected_voters and not (
                state.votes_done.triggered
            ):
                state.votes_done.succeed()
        else:
            raise ProtocolError(f"unknown vote tag {tag!r}")

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
        state = self._roots.get(txn_name)
        if state is None:
            raise ProtocolError(f"decision ack for unknown root {txn_name!r}")
        state.acks.add(participant)
        if state.acks >= state.expected_ackers and not state.acks_done.triggered:
            state.acks_done.succeed()

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
