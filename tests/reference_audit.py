"""The per-read audit check that one-pass checking replaced.

Kept verbatim, for tests only, as the reference the Hypothesis
differential in ``tests/test_audit_reference.py`` runs the auditor of
``repro.analysis.rolling`` against:

* ``ReferenceAuditor`` — grouped every read transaction's events by key,
  parsed each ``bal:<entity>`` key twice, built a set of per-node values
  for every item and queried the committed masks per key, for every
  read, clean or not; it decided a parked read's version was settled by
  scanning every in-flight record;
* ``audit`` — grouped the run's ``read_events`` by transaction and fed
  every group to ``ReferenceAuditor.check``;
* ``ReferenceMasks`` — ``CommittedMasks`` whose ``upto`` ORs every
  version of the entity on each call;
* ``corrected_entities`` — the frozen set of corrected entities, built
  per comparison.

The one change since: a fractured item's ``(node, value)`` pairs are
ordered by ``repr`` where a plain sort raises (``_ordered``), in both
auditors, so an item one node shows as both ``0`` and ``None`` is
reported instead of failing the audit.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

from repro.analysis.rolling import MAX_EVIDENCE, AnomalyReport
from repro.analysis.serializability import (
    Violation,
    balance_entity,
    effectively_distinct,
    snapshot_mismatches,
)
from repro.txn.history import History, ReadEvent, TxnKind, TxnRecord


def _ordered(values) -> list:
    """``sorted(values)``, or by ``repr`` where the values do not order."""
    try:
        return sorted(values)
    except TypeError:
        return sorted(values, key=repr)


class ReferenceMasks:
    """Committed-update index: entity -> version -> OR of amounts."""

    __slots__ = ("_by_entity",)

    def __init__(self):
        self._by_entity: typing.Dict[int, typing.Dict[
            typing.Optional[int], int]] = {}

    @classmethod
    def from_history(cls, history: History,
                     update_amounts: typing.Mapping[
                         str, typing.Tuple[int, int]]) -> "ReferenceMasks":
        """Index every recorded, non-aborted update of a finished run."""
        masks = cls()
        txns = history.txns
        for name, (entity, amount) in update_amounts.items():
            record = txns.get(name)
            if record is not None and not record.aborted:
                masks.add(entity, record.version, amount)
        return masks

    def add(self, entity: int, version: typing.Optional[int],
            amount: int) -> None:
        by_version = self._by_entity.setdefault(entity, {})
        by_version[version] = by_version.get(version, 0) | amount

    def upto(self, entity: int,
             max_version: typing.Optional[int] = None) -> int:
        """Bitmask of ``entity``'s committed updates with version
        ``<= max_version`` (``None``: all of them; an unversioned update
        is excluded whenever a bound is given)."""
        mask = 0
        for version, bits in self._by_entity.get(entity, {}).items():
            if max_version is not None and (
                version is None or version > max_version
            ):
                continue
            mask |= bits
        return mask


def corrected_entities(workload) -> typing.FrozenSet[int]:
    """Entities the bitmask oracle must skip: a non-commuting correction
    overwrites a balance wholesale (possibly with a non-integer), so a
    corrected entity no longer decomposes as a bitmask."""
    return frozenset(getattr(workload, "correction_entities", {}).values())


class ReferenceAuditor:
    """The serializability auditor of one run, checking every read the
    long way."""

    def __init__(self, history: History, workload,
                 check_snapshots: bool = False, window: int = 65536,
                 masks: typing.Optional[ReferenceMasks] = None):
        self.history = history
        self.workload = workload
        self.check_snapshots = check_snapshots
        self.window = window
        self.tally = AnomalyReport(0, 0, 0, 0, 0, violations=[])
        self._masks = masks if masks is not None else ReferenceMasks()
        self._pending: typing.Deque[typing.Tuple[
            TxnRecord, typing.Dict[typing.Hashable,
                                   typing.List[ReadEvent]]]] = (
            collections.deque()
        )

    def _evidence(self, violation: Violation) -> None:
        if len(self.tally.violations) < MAX_EVIDENCE:
            self.tally.violations.append(violation)

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
        if record.aborted or record.kind != TxnKind.READ or not events:
            return
        by_key: typing.Dict[typing.Hashable,
                            typing.List[ReadEvent]] = {}
        for event in events:
            by_key.setdefault(event.key, []).append(event)
        self.tally.reads_checked += len(by_key)
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

    def _settled(self, version: typing.Optional[int],
                 closed: typing.Mapping[int, float]) -> bool:
        """No present or future update transaction can carry ``<= version``."""
        if version is None:
            return False
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

    def report(self) -> AnomalyReport:
        self._drain(force=True)
        return dataclasses.replace(
            self.tally, violations=list(self.tally.violations),
            aborted_txns=self.history.aborted_count(),
            compensated_txns=self.history.compensated_count())

def audit(history: History, workload=None,
          check_snapshots: bool = False) -> AnomalyReport:
    """Score a run's retained history: every read's events grouped, then
    checked against the whole run's committed-update index."""
    if check_snapshots and workload is None:
        raise ValueError("snapshot checking requires the workload oracle")
    masks = (ReferenceMasks.from_history(history, workload.update_amounts)
             if check_snapshots else None)
    auditor = ReferenceAuditor(history, workload,
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
