"""The serializability auditor: one per-read check, rolling or post-hoc.

Both checks of :mod:`repro.analysis.serializability` — fractured reads
and the Theorem 4.1 snapshot comparison — are made per committed read
transaction, with its read events grouped by key; the fractured check
merges the slots of a replicated balance (``bal:7#0``, ``bal:7#1``, …)
into their entity, ``bal:7``.

:class:`RollingAuditor` makes them as transactions retire from a
retiring :class:`~repro.txn.history.History`, in O(entities × versions +
pending reads) memory.  A fractured read needs only the retiring record.
A read can retire *before* some update it legitimately observed (update
trees complete globally later than the read that saw their local
commits), so its snapshot check waits in a pending window until its
version is **settled**: closed (phase 1 of the next advancement finished,
so no new update can get that version) with no in-flight update carrying
a version ``<=`` the read's.  The mask accumulated from retired committed
updates is then provably the full committed mask, and the check exact.

The post-hoc :func:`audit` runs the same check over a finished run's
retained records with the whole run's index built up front, so every
version is settled and no read is parked.  Its :class:`AnomalyReport` is
the unit the C4 correctness benchmark tabulates per system.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

from repro.analysis.serializability import (
    CommittedMasks,
    Violation,
    balance_entity,
    corrected_entities,
    effectively_distinct,
    snapshot_mismatches,
)
from repro.txn.history import History, ReadEvent, TxnKind, TxnRecord

#: Evidence cap: counts are exact, but only the first this many Violation
#: records are kept as examples (a pathological run must not grow a list
#: proportional to its violation count).
MAX_EVIDENCE = 100


@dataclasses.dataclass
class AnomalyReport:
    """Correctness scorecard for one simulation run."""

    reads_checked: int
    fractured_reads: int
    snapshot_mismatches: int
    aborted_txns: int
    compensated_txns: int
    #: The first :data:`MAX_EVIDENCE` violations found.
    violations: typing.List[Violation]
    #: Reads the rolling auditor's pending window dropped *unchecked*;
    #: always 0 for the post-hoc audit.
    reads_skipped: int = 0

    @property
    def clean(self) -> bool:
        """No correctness violations of any kind, and no read that was
        due a check left unchecked."""
        return (self.fractured_reads == 0 and self.snapshot_mismatches == 0
                and self.reads_skipped == 0)

    @property
    def fractured_rate(self) -> float:
        """Fractured (read, entity) pairs per examined (read, key) pair
        (one key per entity at replication factor 1)."""
        if self.reads_checked == 0:
            return 0.0
        return self.fractured_reads / self.reads_checked


class RollingAuditor:
    """The serializability auditor of one run.

    Rolling: attach via ``history.add_retire_sink(auditor.on_retire)``
    and call :meth:`report` after the run has drained.  Post-hoc: pass a
    finished run's ``masks`` and feed every read transaction to
    :meth:`check` with ``settled=True`` (what :func:`audit` does).

    Args:
        history: The :class:`~repro.txn.history.History` being audited
            (advancement closure and in-flight versions; abort counts).
        workload: The :class:`~repro.workloads.recording.RecordingWorkload`
            that generated the traffic.  Rolling, its ``update_amounts``
            entries are *consumed* as updates retire (so the bookkeeping
            dict stays bounded); its ``correction_entities`` marks
            entities the bitmask oracle must skip.
        check_snapshots: Run the strict bitmask oracle (requires the
            workload's ``"bitmask"`` amount mode).
        window: Maximum parked reads awaiting a settled version; beyond
            it the oldest are dropped *unchecked* and counted in
            ``reads_skipped``, which the report carries and which makes
            it not ``clean`` (never silently passed).
        masks: A finished run's whole committed-update index; omitted,
            the auditor builds it from the updates as they retire.
    """

    def __init__(self, history: History, workload,
                 check_snapshots: bool = False, window: int = 65536,
                 masks: typing.Optional[CommittedMasks] = None):
        self.history = history
        self.workload = workload
        self.check_snapshots = check_snapshots
        self.window = window
        #: The scorecard so far (abort counts are read by :meth:`report`).
        self.tally = AnomalyReport(0, 0, 0, 0, 0, violations=[])
        self._masks = masks if masks is not None else CommittedMasks()
        #: Parked committed reads: (record, {key: [events]}).
        self._pending: typing.Deque[typing.Tuple[
            TxnRecord, typing.Dict[typing.Hashable,
                                   typing.List[ReadEvent]]]] = (
            collections.deque()
        )

    def _evidence(self, violation: Violation) -> None:
        if len(self.tally.violations) < MAX_EVIDENCE:
            self.tally.violations.append(violation)

    # ------------------------------------------------------------------
    # The per-read check
    # ------------------------------------------------------------------

    def on_retire(self, record: TxnRecord,
                  events: typing.Sequence[ReadEvent]) -> None:
        """Retirement sink: index a retiring update, check a retiring read."""
        amounts = getattr(self.workload, "update_amounts", None)
        if amounts is not None and record.name in amounts:
            entity, amount = amounts.pop(record.name)
            if not record.aborted:
                self._masks.add(entity, record.version, amount)
            self._drain()
            return
        self.check(record, events)

    def check(self, record: TxnRecord, events: typing.Sequence[ReadEvent],
              settled: bool = False) -> None:
        """The per-read check of one transaction's read events: only a
        committed read transaction is held to snapshot semantics (an update
        legitimately sees in-progress same-version state).  Each key counts
        as one read checked; the keys of one entity are checked together
        for a fractured read.  With ``check_snapshots`` the read is
        compared with the committed masks now if ``settled``, else once its
        version settles."""
        if record.aborted or record.kind != TxnKind.READ or not events:
            return
        by_key: typing.Dict[typing.Hashable,
                            typing.List[ReadEvent]] = {}
        for event in events:
            by_key.setdefault(event.key, []).append(event)
        self.tally.reads_checked += len(by_key)
        # Read-one routing reads each slot of a replicated balance from one
        # replica, so a fracture shows only across the entity's slots.
        by_item: typing.Dict[typing.Hashable, set] = {}
        for key, key_events in by_key.items():
            entity = balance_entity(key)
            item = key if entity is None else f"bal:{entity}"
            values = {(event.node, event.value) for event in key_events}
            if item in by_item:
                by_item[item] |= values
            else:
                by_item[item] = values
        for item, values in by_item.items():
            if len(effectively_distinct(
                    value for _node, value in values)) > 1:
                self.tally.fractured_reads += 1
                self._evidence(Violation(
                    kind="fractured-read", txn=record.name, key=item,
                    details=f"per-node values {sorted(values)!r}",
                ))
        if not self.check_snapshots:
            return
        if settled:
            self._compare_masks(record, by_key)
            return
        self._pending.append((record, by_key))
        while len(self._pending) > self.window:
            self._pending.popleft()
            self.tally.reads_skipped += 1
        self._drain()

    def _compare_masks(self, record: TxnRecord, by_key) -> None:
        for violation in snapshot_mismatches(
                self._masks, corrected_entities(self.workload), record,
                by_key):
            self.tally.snapshot_mismatches += 1
            self._evidence(violation)

    # ------------------------------------------------------------------
    # Deferred snapshot checking
    # ------------------------------------------------------------------

    def _settled(self, version: typing.Optional[int],
                 closed: typing.Mapping[int, float]) -> bool:
        """No present or future update transaction can carry ``<= version``."""
        if version is None:
            return False  # unversioned reads settle only at report() time
        if version not in closed:
            return False
        for record in self.history.txns.values():
            if (record.kind != TxnKind.READ and record.version is not None
                    and record.version <= version):
                return False
        return True

    def _drain(self, force: bool = False) -> None:
        closed = self.history.closed_at()
        while self._pending:
            record, by_key = self._pending[0]
            if not force and not self._settled(record.version, closed):
                return
            self._pending.popleft()
            self._compare_masks(record, by_key)

    # ------------------------------------------------------------------
    # Final report
    # ------------------------------------------------------------------

    def report(self) -> AnomalyReport:
        """Drain the pending window (exact once the run has retired
        everything) and score the run."""
        self._drain(force=True)
        return dataclasses.replace(
            self.tally, violations=list(self.tally.violations),
            aborted_txns=self.history.aborted_count(),
            compensated_txns=self.history.compensated_count())


def audit(history: History, workload=None,
          check_snapshots: bool = False) -> AnomalyReport:
    """Score a run's retained history: every read through the auditor's
    per-read check against the whole run's committed-update index.  The
    workload's ``update_amounts`` are read, not consumed.

    Args:
        history: A history that keeps read events (``"read"``).
        workload: Required for ``check_snapshots``; the
            :class:`~repro.workloads.recording.RecordingWorkload` that
            generated the traffic (must be in ``"bitmask"`` mode).
        check_snapshots: Also run the strict Theorem 4.1 oracle.
    """
    if check_snapshots and workload is None:
        raise ValueError("snapshot checking requires the workload oracle")
    masks = (CommittedMasks.from_history(history, workload.update_amounts)
             if check_snapshots else None)
    auditor = RollingAuditor(history, workload,
                             check_snapshots=check_snapshots, masks=masks)
    by_txn: typing.Dict[str, typing.List[ReadEvent]] = {}
    for event in history.read_events:
        by_txn.setdefault(event.txn, []).append(event)
    txns = history.txns
    for name, events in by_txn.items():
        record = txns.get(name)
        if record is not None:
            auditor.check(record, events, settled=True)
    return auditor.report()


def atomic_visibility_violations(history: History) -> typing.List[Violation]:
    """Fractured reads: one read transaction, one entity (every slot of a
    replicated balance), different values on different nodes (the first
    :data:`MAX_EVIDENCE` of them).  Requires a history that keeps read
    events."""
    return audit(history).violations
