"""NC3V: graceful handling of non-commuting updates (Section 5).

Non-well-behaved transactions (those whose updates do not commute) follow
the classical discipline: non-commuting NR/NW locks under two-phase
locking, plus a global two-phase commitment — while well-behaved and
read-only transactions keep running exactly as in plain 3V (well-behaved
updates additionally take *commuting* CR/CW locks, which never conflict
with each other, so their zero-wait property survives as long as no
non-commuting transaction touches the same records).

The NC3V root algorithm implemented here:

1. ``V(K) := vu`` on arrival.
2. Wait until ``V(K) == vr + 1`` (only untrue mid-advancement), so a
   non-well-behaved transaction never runs while the versions it might
   touch are being phased out.
3. Reads: maximum existing version ``<= V(K)``.
4. Writes: if the item exists in a version ``> V(K)``, **abort** (a newer
   version has already diverged); otherwise create ``x(V(K))`` if needed
   and update exactly that version.
5. Child subtransactions carry ``V(K)``; request counters are incremented
   before each send, exactly as in 3V.
6. Global two-phase commitment; each participant's completion counters
   are incremented atomically with the commit (or abort) decision, so
   version advancement's quiescence check correctly waits for
   non-commuting transactions too.

The 2PL/2PC mechanics — execution reports, prepare/vote and decision/ack
rounds, undo logs, wait-die — are
:class:`~repro.runtime.twophase.TwoPhaseEngine`, shared verbatim with the
2PC baseline; this subclass adds only the version-aware steps above.
"""

from __future__ import annotations

import functools
import typing

from repro.runtime.twophase import (
    ParticipantState,
    TwoPhaseEngine,
    UndoEntry,
)
from repro.txn.history import TxnKind, WaitReason
from repro.txn.runtime import SubtxnInstance
from repro.txn.spec import WriteOp


class NC3VManager(TwoPhaseEngine):
    """Per-node driver for non-well-behaved transactions."""

    abort_reason = "nc-abort"

    def __init__(self, node):
        super().__init__(node)
        #: Roots gated on the ``vu == vr + 1`` condition:
        #: ``(instance, gated_at, then)``.
        self._gate_waiters: typing.List[tuple] = []
        self.aborts_version_conflict = 0

    # ------------------------------------------------------------------
    # Root admission (Section 5 steps 1-2)
    # ------------------------------------------------------------------

    def admit_root(self, instance: SubtxnInstance):
        node = self.node
        # Step 1: V(K) := vu.
        instance.version = node.vu
        node.counters.inc_request(instance.version, node.node_id)
        node.history.begin_txn(
            instance.txn.name, TxnKind.NONCOMMUTING, instance.version,
            node.sim.now, node.node_id,
        )
        # Step 2: wait until V(K) == vr + 1.
        if instance.version != node.vr + 1:
            return functools.partial(self._gate, instance)
        return None

    def _gate(self, instance: SubtxnInstance, then) -> None:
        self._gate_waiters.append((instance, self.node.sim.now, then))

    def on_read_advance(self) -> None:
        """Called by the node when ``vr`` changes: re-check gated roots,
        opening each passable gate in one scheduled callback."""
        still_waiting = []
        for waiter in self._gate_waiters:
            if waiter[0].version == self.node.vr + 1:
                self.node.sim.schedule_now(self._open_gate, *waiter)
            else:
                still_waiting.append(waiter)
        self._gate_waiters = still_waiting

    def _open_gate(self, instance: SubtxnInstance, gated_at: float,
                   then) -> None:
        node = self.node
        node.history.waited(
            instance.txn.name, WaitReason.VERSION_GATE, node.sim.now - gated_at
        )
        then()

    # ------------------------------------------------------------------
    # Version-aware engine hooks
    # ------------------------------------------------------------------

    def note_request(self, version, target: str) -> None:
        # Step 5: increment the request counter before each child send.
        self.node.counters.inc_request(version, target)

    def check_version_conflict(self, instance: SubtxnInstance) -> bool:
        # Step 4 version check, before any write.
        node = self.node
        version = instance.version
        for op in instance.spec.ops:
            if isinstance(op, WriteOp) and node.store.exists_above(
                op.key, version
            ):
                self.aborts_version_conflict += 1
                return True
        return False

    def record_undo_event(self, txn_name: str, entry: UndoEntry) -> None:
        node = self.node
        if node.history.keeps_writes:
            node.history.wrote(node.sim.now, txn_name, "(rollback)",
                               node.node_id, entry.key, entry.version, 1,
                               entry.undo, compensating=True)

    def after_decision(self, state: ParticipantState) -> None:
        # Completion counters move atomically with the decision (step 6).
        node = self.node
        for sid, source in state.executed:
            node.counters.inc_completion(state.version, source)
