"""Commutative value algebra for data-recording workloads.

The paper's application domain (Section 6) records observations and updates
derived summaries: "the final state of the database is the same after the
application of two updates, irrespective of the order" — i.e. the update
*subtransactions* commute even though individual read/write operations do
not (Example 3.1).  We model this with explicit operation objects:

* :class:`Increment` — add a delta to a numeric summary (account balance,
  items sold).  Commutes with other increments.
* :class:`Record` — insert an observation into a multiset (a call detail
  record, a charge line item).  Commutes with other records.  Its state is
  an :class:`ObservationLog`: an insert is O(1) and orders nothing, and
  the canonical order is built once, where the log is read.
* :class:`Assign` — blind overwrite.  Does **not** commute; only
  non-well-behaved (NC3V) transactions may use it.

Every operation knows its inverse, which is what compensation (Section 3.2)
applies when a transaction tree aborts.
"""

from __future__ import annotations

import collections.abc
import typing

from repro.errors import StorageError

__all__ = [
    "Operation",
    "Increment",
    "ObservationLog",
    "Record",
    "Unrecord",
    "Assign",
    "AssignUndo",
    "undo_operation",
]


class Operation:
    """A state transformer applied to one data item.

    Workloads may define custom operations by subclassing.
    """

    #: Whether this operation commutes with every other commuting operation.
    commutes: typing.ClassVar[bool] = True

    def apply(self, state):  # pragma: no cover - abstract
        """Return the new state produced by applying this op to ``state``."""
        raise NotImplementedError

    def inverse(self) -> "Operation":  # pragma: no cover - abstract
        """Return the compensating operation."""
        raise NotImplementedError


class Increment(Operation):
    """Add ``delta`` to a numeric state (missing state counts as 0)."""

    def __init__(self, delta: float):
        self.delta = delta

    def apply(self, state):
        if state is None:
            state = 0
        elif (state.__class__ is not int and state.__class__ is not float
              and not isinstance(state, (int, float))):
            raise StorageError(f"Increment applied to non-number: {state!r}")
        return state + self.delta

    def inverse(self) -> "Increment":
        return Increment(-self.delta)

    def __eq__(self, other) -> bool:
        return isinstance(other, Increment) and other.delta == self.delta

    def __hash__(self) -> int:
        return hash(("Increment", self.delta))

    def __repr__(self) -> str:
        return f"Increment({self.delta!r})"


class ObservationLog(collections.abc.Sequence):
    """An immutable multiset of observations: one insert on an earlier state.

    A log is ``(previous state, observation)``, where the previous state is
    another log or a plain tuple (the ``()`` a workload loads, or what
    :class:`Unrecord` returns).  Building one copies and orders nothing,
    so an insert costs the same however long the log is, and versions
    that copied a state on update still share it by reference.

    Reading the log — iterating, indexing, comparing, hashing, ``repr`` —
    sees the *canonical* tuple: every observation sorted by ``repr``, equal
    ``repr``s in insertion order.  Inserts commute, so that order depends
    only on the multiset, and replicas that received the same records in
    any order read byte-identical logs.  It is built by one stable sort on
    first read, walking back only to the nearest log that already holds
    its own, and cached; the cached log lets go of its predecessors.  A
    log compares equal to the plain tuple of its canonical order.
    """

    __slots__ = ("_previous", "_observation", "_length", "_canonical")

    def __init__(self, previous, observation, length: int):
        self._previous = previous
        self._observation = observation
        self._length = length
        self._canonical = None

    def canonical(self) -> tuple:
        """The observations sorted by ``repr``, ties in insertion order."""
        canonical = self._canonical
        if canonical is None:
            inserted = []
            state = self
            while state.__class__ is ObservationLog:
                if state._canonical is not None:
                    base = state._canonical
                    break
                inserted.append(state._observation)
                state = state._previous
            else:
                base = state
            inserted.reverse()
            canonical = self._canonical = tuple(
                sorted(base + tuple(inserted), key=repr))
            self._previous = self._observation = None
        return canonical

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        return self.canonical()[index]

    def __iter__(self):
        return iter(self.canonical())

    def __eq__(self, other) -> bool:
        if isinstance(other, ObservationLog):
            other = other.canonical()
        elif not isinstance(other, tuple):
            return NotImplemented
        return self.canonical() == other

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        return repr(self.canonical())


class Record(Operation):
    """Insert an observation into a multiset state.

    The state is an :class:`ObservationLog` (``None`` and a plain tuple are
    valid empty or canonical starts).  An insert links the observation onto
    the state and computes no ``repr`` and sorts nothing; the order that
    makes two Records commute — two logs of one multiset read alike — is
    established when the log is read.
    """

    def __init__(self, observation):
        self.observation = observation

    def apply(self, state):
        if state.__class__ is ObservationLog:
            return ObservationLog(state, self.observation, state._length + 1)
        if state is None:
            state = ()
        elif not isinstance(state, tuple):
            raise StorageError(f"Record applied to non-multiset: {state!r}")
        return ObservationLog(state, self.observation, len(state) + 1)

    def inverse(self) -> "Unrecord":
        return Unrecord(self.observation)

    def __eq__(self, other) -> bool:
        return isinstance(other, Record) and other.observation == self.observation

    def __hash__(self) -> int:
        return hash(("Record", self.observation))

    def __repr__(self) -> str:
        return f"Record({self.observation!r})"


class Unrecord(Operation):
    """Remove one instance of an observation (the inverse of :class:`Record`).

    The new state is the plain canonical tuple without it.
    """

    def __init__(self, observation):
        self.observation = observation

    def apply(self, state):
        if state is None:
            state = ()
        entries = list(state)
        try:
            entries.remove(self.observation)
        except ValueError:
            raise StorageError(
                f"Unrecord of absent observation: {self.observation!r}"
            ) from None
        return tuple(entries)

    def inverse(self) -> Record:
        return Record(self.observation)

    def __repr__(self) -> str:
        return f"Unrecord({self.observation!r})"


class Assign(Operation):
    """Blind overwrite — the canonical *non-commuting* update.

    Only non-well-behaved transactions (Section 5, NC3V) may use it; the 3V
    node refuses to run it inside a well-behaved transaction.  ``Assign`` has
    no standalone inverse (the inverse depends on the overwritten state), so
    NC3V transactions holding locks roll back via :class:`AssignUndo` built
    at apply time.
    """

    commutes: typing.ClassVar[bool] = False

    def __init__(self, value):
        self.value = value

    def apply(self, state):
        return self.value

    def inverse(self) -> "Operation":
        raise StorageError("Assign has no state-independent inverse")

    def undo_for(self, previous_state) -> "AssignUndo":
        """Build the compensating operation given the overwritten state."""
        return AssignUndo(previous_state)

    def __repr__(self) -> str:
        return f"Assign({self.value!r})"


class AssignUndo(Operation):
    """Restore a captured previous state (inverse of a specific Assign)."""

    commutes: typing.ClassVar[bool] = False

    def __init__(self, previous_state):
        self.previous_state = previous_state

    def apply(self, state):
        return self.previous_state

    def inverse(self) -> "Operation":
        raise StorageError("AssignUndo inverse requires the later state")

    def __repr__(self) -> str:
        return f"AssignUndo({self.previous_state!r})"


def undo_operation(operation: Operation, previous_state) -> Operation:
    """Build the rollback operation for one applied write.

    Commuting operations have state-independent inverses; non-commuting
    ones (``Assign``) need the overwritten state captured at apply time.
    """
    if operation.commutes:
        return operation.inverse()
    undo_builder = getattr(operation, "undo_for", None)
    if undo_builder is not None:
        return undo_builder(previous_state)
    raise StorageError(
        f"operation {operation!r} is neither invertible nor undoable"
    )
