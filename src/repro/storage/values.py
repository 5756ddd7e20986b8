"""Commutative value algebra for data-recording workloads.

The paper's application domain (Section 6) records observations and updates
derived summaries: "the final state of the database is the same after the
application of two updates, irrespective of the order" — i.e. the update
*subtransactions* commute even though individual read/write operations do
not (Example 3.1).  We model this with explicit operation objects:

* :class:`Increment` — add a delta to a numeric summary (account balance,
  items sold).  Commutes with other increments.
* :class:`Record` — insert an observation into a multiset (a call detail
  record, a charge line item).  Commutes with other records.
* :class:`Assign` — blind overwrite.  Does **not** commute; only
  non-well-behaved (NC3V) transactions may use it.

Every operation knows its inverse, which is what compensation (Section 3.2)
applies when a transaction tree aborts.
"""

from __future__ import annotations

import bisect
import typing

from repro.errors import StorageError

__all__ = [
    "Operation",
    "Increment",
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
        if not isinstance(state, (int, float)):
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


class Record(Operation):
    """Insert an observation into a multiset state.

    States are immutable: represented as a ``frozenset`` of
    ``(observation, count)``-free entries is not enough for duplicates, so
    we store a tuple sorted by ``repr``.  Insertion order does not affect
    the state, which is what makes two Records commute.  ``Record`` and
    :class:`Unrecord` both preserve the order, so an insert is one binary
    search and a splice, not a sort of the whole log; among equal ``repr``
    keys the newcomer goes last, as a stable sort would put it.
    """

    def __init__(self, observation):
        self.observation = observation

    def apply(self, state):
        if state is None:
            state = ()
        if not isinstance(state, tuple):
            raise StorageError(f"Record applied to non-multiset: {state!r}")
        observation = self.observation
        at = bisect.bisect_right(state, repr(observation), key=repr)
        return state[:at] + (observation,) + state[at:]

    def inverse(self) -> "Unrecord":
        return Unrecord(self.observation)

    def __eq__(self, other) -> bool:
        return isinstance(other, Record) and other.observation == self.observation

    def __hash__(self) -> int:
        return hash(("Record", self.observation))

    def __repr__(self) -> str:
        return f"Record({self.observation!r})"


class Unrecord(Operation):
    """Remove one instance of an observation (the inverse of :class:`Record`)."""

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
