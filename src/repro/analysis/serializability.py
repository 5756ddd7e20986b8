"""Serializability and atomic-visibility oracles: the pieces of the
auditor's per-read check (:mod:`repro.analysis.rolling`).

The correctness criterion is global serializability (Section 3.3); for the
3V protocol specifically, Theorem 4.1 says every schedule is equivalent to
the serial order *sorted by version number, updates before reads within a
version*.  Each committed read transaction is checked twice:

* for *fractured reads*: recording transactions write the *same amount*
  to every node an entity spans, so one entity showing values that are
  :func:`effectively_distinct` on different nodes is a fractured read.
  Under replication the entity's slots (``bal:7#0``, ``bal:7#1``, …)
  are compared together: read-one routing reads each slot from a single
  replica, so a fracture shows only across slots;
* against its snapshot (:func:`snapshot_mismatches`, requiring the
  workload's ``"bitmask"`` amount mode): a read with version ``v`` must
  see **exactly** the committed recording transactions with version
  ``<= v`` — no partial transactions, nothing newer, nothing missing.
  The expected value comes from :class:`CommittedMasks`, an index of the
  run's committed updates, so an audit costs O(updates + reads × log
  versions-per-entity).

Both report structured :class:`Violation` records so tests can assert on
counts and benchmarks can tabulate anomaly rates.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import typing

from repro.txn.history import History


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
    """Committed-update index: per entity, the OR of amounts up to each
    version.

    The one definition of "the committed mask of an entity up to a
    version" that both auditors query.  Callers add only *committed*
    recording transactions: the post-hoc audit in one pass
    (:meth:`from_history`), the rolling auditor as updates retire.

    An entity's index is cumulative: its distinct versions, sorted, and
    beside each the OR of every amount at or below it.  A query is one
    bisection however long the run; an update adds its amount to the
    masks at and above its version, which for an update at the newest
    version (nearly every one) is the last.
    """

    __slots__ = ("_by_entity",)

    def __init__(self):
        #: entity -> [versions, masks, unversioned]: ``masks[i]`` is the
        #: OR of the amounts with a version ``<= versions[i]``, and
        #: ``unversioned`` the OR of those without a version.
        self._by_entity: typing.Dict[int, list] = {}

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
        by_entity = self._by_entity
        if entity in by_entity:
            index = by_entity[entity]
        else:
            index = by_entity[entity] = [[], [], 0]
        if version is None:
            index[2] |= amount
            return
        versions, masks = index[0], index[1]
        if not versions or version > versions[-1]:
            versions.append(version)
            masks.append(masks[-1] | amount if masks else amount)
            return
        at = bisect.bisect_left(versions, version)
        if versions[at] != version:
            versions.insert(at, version)
            masks.insert(at, masks[at - 1] if at else 0)
        for later in range(at, len(masks)):
            masks[later] |= amount

    def upto(self, entity: int,
             max_version: typing.Optional[int] = None) -> int:
        """Bitmask of ``entity``'s committed updates with version
        ``<= max_version`` (``None``: all of them; an unversioned update
        is excluded whenever a bound is given)."""
        if entity not in self._by_entity:
            return 0
        versions, masks, unversioned = self._by_entity[entity]
        if max_version is None:
            return masks[-1] | unversioned if masks else unversioned
        at = bisect.bisect_right(versions, max_version)
        return masks[at - 1] if at else 0


def snapshot_mismatches(
    masks: CommittedMasks, corrected: typing.AbstractSet[int], record,
    by_key: typing.Mapping[typing.Hashable, typing.Sequence],
) -> typing.Iterator[Violation]:
    """One read transaction against the index: a violation per read
    event whose value is not exactly the committed mask at the read's
    version.  An int value's details give the missing and extra masks;
    any other value is named as it is, with no mask arithmetic."""
    version = record.version
    for key, events in by_key.items():
        entity = balance_entity(key)
        if entity is None or entity in corrected:
            continue
        expected = masks.upto(entity, version)
        for event in events:
            observed = event.value if event.value is not None else 0
            if observed == expected:
                continue
            if isinstance(observed, int):
                details = (f"node {event.node}: version {version}, "
                           f"missing mask {expected & ~observed:#x}, "
                           f"extra mask {observed & ~expected:#x}")
            else:
                # A float (say, a correction the index does not count
                # yet) has no bits to compare: name the value instead.
                details = (f"node {event.node}: version {version}, "
                           f"value {observed!r} is not a mask, "
                           f"expected mask {expected:#x}")
            yield Violation(kind="snapshot-mismatch", txn=record.name,
                            key=key, details=details)
