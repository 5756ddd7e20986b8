"""Serializability and atomic-visibility oracles.

The correctness criterion is global serializability (Section 3.3); for the
3V protocol specifically, Theorem 4.1 says every schedule is equivalent to
the serial order *sorted by version number, updates before reads within a
version*.  Two executable checks cover this:

* :func:`atomic_visibility_violations` — for every committed read
  transaction, each data item read on several nodes must reflect the same
  set of update transactions.  Recording transactions write the *same
  amount* to every node an entity spans, so any divergence between the
  per-node values a single read observed is a fractured read.  Works on
  any workload built by :class:`~repro.workloads.recording.RecordingWorkload`.
* :func:`snapshot_violations` — the strict Theorem 4.1 check, requiring
  the workload's ``"bitmask"`` amount mode: every read with version ``v``
  must see **exactly** the committed recording transactions with version
  ``<= v`` — no partial transactions, nothing newer, nothing missing.
  The expected value comes from :class:`CommittedMasks`, an index built
  in one pass over the run's updates and shared with the streaming
  :class:`~repro.analysis.rolling.RollingAuditor`, so an audit costs
  O(updates + reads × versions-per-entity).

Both return structured :class:`Violation` records so tests can assert on
counts and benchmarks can tabulate anomaly rates.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.txn.history import History, TxnKind


@dataclasses.dataclass(frozen=True)
class Violation:
    """One detected correctness violation."""

    kind: str  # "fractured-read" | "snapshot-mismatch"
    txn: str
    key: typing.Hashable
    details: str


#: Tolerance for comparing float balances across nodes.  Money-mode
#: amounts commute *semantically* but float addition is not associative:
#: the same increments applied in different per-node arrival orders can
#: differ in the last few ULPs.  A real fractured read is off by at
#: least one whole update amount (cents), ~10^7 times this tolerance,
#: so drift never masks a genuine violation.  Bitmask-mode values are
#: ints and always compared exactly.
FLOAT_DRIFT_TOLERANCE = 1e-9


def effectively_distinct(values: typing.Iterable) -> set:
    """The distinct values, treating ULP-drifted floats as equal.

    Non-float values (bitmask ints, ``None``) keep exact set semantics;
    floats are clustered with a relative-and-absolute tolerance of
    :data:`FLOAT_DRIFT_TOLERANCE`.
    """
    exact = set(values)
    floats = sorted(v for v in exact if isinstance(v, float))
    if len(floats) <= 1:
        return exact
    clusters = [floats[0]]
    for value in floats[1:]:
        if not math.isclose(value, clusters[-1],
                            rel_tol=FLOAT_DRIFT_TOLERANCE,
                            abs_tol=FLOAT_DRIFT_TOLERANCE):
            clusters.append(value)
    return {v for v in exact if not isinstance(v, float)} | set(clusters)


def _reads_by_txn_and_key(history: History) -> typing.Dict[
    str, typing.Dict[typing.Hashable, typing.List]
]:
    """Group detailed read events: txn -> key -> [events]."""
    grouped: typing.Dict[str, typing.Dict[typing.Hashable, list]] = {}
    for event in history.read_events:
        record = history.txns.get(event.txn)
        if record is None or record.aborted or record.kind != TxnKind.READ:
            continue
        grouped.setdefault(event.txn, {}).setdefault(event.key, []).append(event)
    return grouped


def balance_entity(key: typing.Hashable) -> typing.Optional[int]:
    """The entity a ``bal:<entity>[#slot]`` summary key belongs to.

    Replicated keys are slot-qualified (``"bal:38#0"``); the slot never
    changes which entity's committed mask applies.  ``None`` for any
    other key (observation logs, the paper example's items).
    """
    text = str(key)
    if not text.startswith("bal:"):
        return None
    return int(text[4:].split("#", 1)[0])


class CommittedMasks:
    """Committed-update index: entity -> version -> OR of amounts.

    The one definition of "the committed mask of an entity up to a
    version" that both auditors query.  Callers add only *committed*
    recording transactions: the post-hoc audit in one pass
    (:meth:`from_history`), the rolling auditor as updates retire.
    """

    __slots__ = ("_by_entity",)

    def __init__(self):
        self._by_entity: typing.Dict[int, typing.Dict[
            typing.Optional[int], int]] = {}

    @classmethod
    def from_history(cls, history: History,
                     update_amounts: typing.Mapping[
                         str, typing.Tuple[int, int]]) -> "CommittedMasks":
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


def _fractured(grouped) -> typing.List[Violation]:
    """Fractured reads in an already-grouped history."""
    violations = []
    for txn, by_key in grouped.items():
        for key, events in by_key.items():
            values = {(event.node, event.value) for event in events}
            distinct = effectively_distinct(
                value for _node, value in values)
            if len(distinct) > 1:
                violations.append(
                    Violation(
                        kind="fractured-read",
                        txn=txn,
                        key=key,
                        details=f"per-node values {sorted(values)!r}",
                    )
                )
    return violations


def atomic_visibility_violations(history: History) -> typing.List[Violation]:
    """Fractured reads: one read transaction, one key, different values on
    different nodes.

    Requires the history to carry detailed read events (``detail=True``).
    """
    return _fractured(_reads_by_txn_and_key(history))


def corrected_entities(workload) -> typing.FrozenSet[int]:
    """Entities the bitmask oracle must skip: a non-commuting correction
    overwrites a balance wholesale (possibly with a non-integer), so a
    corrected entity no longer decomposes as a bitmask."""
    return frozenset(getattr(workload, "correction_entities", {}).values())


def snapshot_mismatches(
    masks: CommittedMasks, corrected: typing.AbstractSet[int], record,
    by_key: typing.Mapping[typing.Hashable, typing.Sequence],
) -> typing.Iterator[Violation]:
    """One read transaction against the index: a violation per read
    event whose value is not exactly the committed mask at the read's
    version."""
    version = record.version
    for key, events in by_key.items():
        entity = balance_entity(key)
        if entity is None or entity in corrected:
            continue
        expected = masks.upto(entity, version)
        for event in events:
            observed = event.value if event.value is not None else 0
            if observed != expected:
                missing = expected & ~observed
                extra = observed & ~expected
                yield Violation(
                    kind="snapshot-mismatch",
                    txn=record.name,
                    key=key,
                    details=(
                        f"node {event.node}: version {version}, "
                        f"missing mask {missing:#x}, "
                        f"extra mask {extra:#x}"
                    ),
                )


def _snapshot(history: History, workload, grouped) -> typing.List[Violation]:
    """Snapshot mismatches in an already-grouped history."""
    masks = CommittedMasks.from_history(history, workload.update_amounts)
    corrected = corrected_entities(workload)
    violations: typing.List[Violation] = []
    for txn, by_key in grouped.items():
        violations.extend(
            snapshot_mismatches(masks, corrected, history.txns[txn], by_key)
        )
    return violations


def snapshot_violations(history: History, workload) -> typing.List[Violation]:
    """Theorem 4.1: reads see exactly the committed updates of versions
    ``<= V(read)``, atomically.

    Args:
        history: A detailed history.
        workload: A :class:`~repro.workloads.recording.RecordingWorkload`
            run in ``"bitmask"`` mode (so balances decompose uniquely).
    """
    return _snapshot(history, workload, _reads_by_txn_and_key(history))


def _count(grouped) -> int:
    """(read transaction, key) pairs in an already-grouped history."""
    return sum(len(by_key) for by_key in grouped.values())


def reads_checked(history: History) -> int:
    """How many (read transaction, key) pairs the oracles examined."""
    return _count(_reads_by_txn_and_key(history))
