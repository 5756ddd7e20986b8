"""The serializability auditor: one per-read check, rolling or post-hoc.

Both checks of :mod:`repro.analysis.serializability` — fractured reads
and the Theorem 4.1 snapshot comparison — are made per committed read
transaction; the fractured check merges the slots of a replicated
balance (``bal:7#0``, ``bal:7#1``, …) into their entity, ``bal:7``.  A
clean read costs one pass over the ``(key, value)`` pairs on its record:
every value of an item equal, every balance equal to its committed mask.
Only a read that pass cannot clear has its read events grouped by key,
and that grouping builds every :class:`Violation`.

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
    effectively_distinct,
    snapshot_mismatches,
)
from repro.txn.history import History, ReadEvent, TxnKind, TxnRecord

#: Evidence cap: counts are exact, but only the first this many Violation
#: records are kept as examples (a pathological run must not grow a list
#: proportional to its violation count).
MAX_EVIDENCE = 100


def _ordered(values) -> list:
    """A fractured item's ``(node, value)`` pairs in order, for its
    violation text; by ``repr`` where the values do not order (one node
    showing the item as both ``0`` and ``None``)."""
    try:
        return sorted(values)
    except TypeError:
        return sorted(values, key=repr)


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
    and call :meth:`report` after the run has drained; a read's snapshot
    check waits until its version settles, which needs a retiring
    history (a retaining one settles a parked read only at
    :meth:`report`).  Post-hoc: pass a finished run's ``masks`` and call
    :meth:`check_retained` (what :func:`audit` does).  Both paths decide
    a read the same way: :meth:`_scan` for a fracture, then, once its
    version is settled, :meth:`_mismatched` for its snapshot.

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
        #: Parked committed reads: (record, balances or None, events).
        self._pending: typing.Deque[typing.Tuple[
            TxnRecord, typing.Optional[typing.Dict[int, typing.Any]],
            typing.Sequence[ReadEvent]]] = collections.deque()
        #: Each key read so far -> its balance entity (``None``: the key
        #: is not a balance).
        self._entities: typing.Dict[typing.Hashable,
                                    typing.Optional[int]] = {}
        #: The workload's corrections (name -> entity), which a rolling
        #: run adds to as it goes, and their entities as last counted.
        self._corrections: typing.Mapping[str, int] = getattr(
            workload, "correction_entities", {})
        self._corrected: typing.FrozenSet[int] = frozenset()
        self._corrections_counted = 0

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

    def check(self, record: TxnRecord,
              events: typing.Sequence[ReadEvent]) -> None:
        """The per-read check of one retiring transaction's read events:
        only a committed read transaction is held to snapshot semantics
        (an update legitimately sees in-progress same-version state).  Each
        key counts as one read checked; the keys of one entity are checked
        together for a fractured read.  With ``check_snapshots`` the read
        is parked, and compared with the committed masks once its version
        settles.  ``events`` are grouped only for a read that is not
        provably clean."""
        if record.aborted or record.kind != TxnKind.READ or not events:
            return
        balances = self._scan(record)
        if balances is None:
            self._explain(record, events, fractures=True, snapshots=False)
        if not self.check_snapshots:
            return
        self._pending.append((record, balances, events))
        while len(self._pending) > self.window:
            self._pending.popleft()
            self.tally.reads_skipped += 1
        self._drain()

    def _scan(self, record: TxnRecord) -> typing.Optional[
            typing.Dict[int, typing.Any]]:
        """One pass over a read's ``(key, value)`` pairs: count its keys as
        reads checked, and return each balance entity's value.  ``None``
        when two values of one key, or of one entity's slots, are not
        equal: only :meth:`_explain` can tell a fracture from float drift.
        Equal values are one value to :func:`effectively_distinct`, so a
        read this passes is exactly one the fractured check passes."""
        entities = self._entities
        first: typing.Dict[typing.Hashable, typing.Any] = {}
        balances: typing.Dict[int, typing.Any] = {}
        clean = True
        for key, value in record.reads:
            if key in first:
                if first[key] != value:
                    clean = False
                continue
            first[key] = value
            if key in entities:
                entity = entities[key]
            else:
                entity = entities[key] = balance_entity(key)
            if entity is None:
                continue  # not a balance: the key is its own item
            if entity in balances:
                if balances[entity] != value:
                    clean = False
            else:
                balances[entity] = value
        self.tally.reads_checked += len(first)
        return balances if clean else None

    def _mismatched(self, record: TxnRecord, balances: typing.Optional[
            typing.Dict[int, typing.Any]]) -> bool:
        """The snapshot verdict on a read whose version has settled: false
        when every balance :meth:`_scan` returned is exactly its committed
        mask at the read's version, true when only :meth:`_explain` can
        tell (a read :meth:`_scan` could not clear included)."""
        if balances is None:
            return True
        corrected = (self._corrected_entities() if self._corrections
                     else self._corrected)
        upto = self._masks.upto
        version = record.version
        for entity, value in balances.items():
            if entity in corrected:
                continue
            if (0 if value is None else value) != upto(entity, version):
                return True
        return False

    def _corrected_entities(self) -> typing.FrozenSet[int]:
        """Entities the bitmask oracle skips, as of now: a non-commuting
        correction overwrites a balance wholesale (possibly with a
        non-integer), so a corrected entity no longer decomposes as a
        bitmask.  The corrections only grow, so their count dates the
        set."""
        corrections = self._corrections
        if len(corrections) != self._corrections_counted:
            self._corrections_counted = len(corrections)
            self._corrected = frozenset(corrections.values())
        return self._corrected

    def _explain(self, record: TxnRecord, events: typing.Sequence[ReadEvent],
                 fractures: bool, snapshots: bool) -> None:
        """The evidence of a read that is not provably clean: its events
        grouped by key, then a violation per fractured item and, with
        ``snapshots``, per event whose value is not its committed mask."""
        by_key: typing.Dict[typing.Hashable,
                            typing.List[ReadEvent]] = {}
        for event in events:
            by_key.setdefault(event.key, []).append(event)
        if fractures:
            # Read-one routing reads each slot of a replicated balance
            # from one replica, so a fracture shows only across the
            # entity's slots.
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
                        details=f"per-node values {_ordered(values)!r}",
                    ))
        if snapshots:
            for violation in snapshot_mismatches(
                    self._masks, self._corrected_entities(), record, by_key):
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
        return not self.history.update_in_flight(version)

    def _drain(self, force: bool = False) -> None:
        closed = self.history.closed_at()
        pending = self._pending
        while pending:
            record, balances, events = pending[0]
            if not force and not self._settled(record.version, closed):
                return
            pending.popleft()
            if self._mismatched(record, balances):
                self._explain(record, events, fractures=False, snapshots=True)

    # ------------------------------------------------------------------
    # Post-hoc checking
    # ------------------------------------------------------------------

    def check_retained(self) -> AnomalyReport:
        """Check every read the history retained against the whole run's
        ``masks`` (every version is settled, so no read is parked) and
        score the run.

        A read's ``(key, value)`` pairs on its record settle it in one
        pass when it is clean; the run's read events are grouped by
        transaction only if some read is not, and the reads that are not
        are explained in the order of their first read event, so the
        violations come out in the order a check of every read's events
        would list them.  The abort counts are taken on the same pass."""
        history = self.history
        txns = history.txns
        check_snapshots = self.check_snapshots
        # Reads that are not provably clean -> whether _scan failed them.
        failed: typing.Dict[str, bool] = {}
        aborted = compensated = 0
        for name, record in txns.items():
            if record.compensated:
                compensated += 1
            if record.aborted:
                aborted += 1
                continue
            if record.kind != TxnKind.READ or not record.reads:
                continue
            balances = self._scan(record)
            if balances is None or (check_snapshots and self._mismatched(
                    record, balances)):
                failed[name] = balances is None
        if failed:
            by_txn: typing.Dict[str, typing.List[ReadEvent]] = {}
            for event in history.read_events:
                if event.txn in failed:
                    by_txn.setdefault(event.txn, []).append(event)
            for name, events in by_txn.items():
                self._explain(txns[name], events, fractures=failed[name],
                              snapshots=check_snapshots)
        return dataclasses.replace(
            self.tally, violations=list(self.tally.violations),
            aborted_txns=aborted, compensated_txns=compensated)

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
    per-read check against the whole run's committed-update index
    (:meth:`RollingAuditor.check_retained`).  The workload's
    ``update_amounts`` are read, not consumed.

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
    return RollingAuditor(history, workload, check_snapshots=check_snapshots,
                          masks=masks).check_retained()


def atomic_visibility_violations(history: History) -> typing.List[Violation]:
    """Fractured reads: one read transaction, one entity (every slot of a
    replicated balance), different values on different nodes (the first
    :data:`MAX_EVIDENCE` of them).  Requires a history that keeps read
    events."""
    return audit(history).violations
