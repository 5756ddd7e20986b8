"""Per-node storage substrate: versioned records, counters, locks, values."""

from repro.storage.counters import CounterTable, quiescent
from repro.storage.locktable import LockMode, LockTable, compatible
from repro.storage.mvstore import MVStore
from repro.storage.values import (
    Assign,
    AssignUndo,
    Increment,
    ObservationLog,
    Operation,
    Record,
    Unrecord,
)

__all__ = [
    "Assign",
    "AssignUndo",
    "CounterTable",
    "Increment",
    "LockMode",
    "LockTable",
    "MVStore",
    "ObservationLog",
    "Operation",
    "Record",
    "Unrecord",
    "compatible",
    "quiescent",
]
