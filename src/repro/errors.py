"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.  The
subclasses are grouped by subsystem: simulation kernel, storage substrate,
transaction execution, and protocol-level failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SpecError(ReproError):
    """An experiment spec holds a value no run can take (refused before
    the run starts)."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel was used incorrectly."""


class StorageError(ReproError):
    """Base class for storage-substrate errors."""


class MissingItemError(StorageError, KeyError):
    """A data item (or any version of it at/below a bound) does not exist."""


class MissingVersionError(StorageError, KeyError):
    """A specific version of a data item was required but does not exist."""


class CounterError(StorageError):
    """Request/completion counter tables were used inconsistently."""


class LockError(ReproError):
    """Base class for lock-table errors."""


class DeadlockAbort(LockError):
    """A transaction was aborted by the wait-die deadlock avoidance policy."""


class TransactionError(ReproError):
    """Base class for transaction specification and execution errors."""


class InvalidTransactionSpec(TransactionError):
    """A transaction tree specification is malformed."""


class ProtocolError(ReproError):
    """A protocol implementation violated one of its internal preconditions."""


class InvariantViolation(ProtocolError):
    """One of the paper's Section 4.4 correctness properties was violated."""


class AdvancementInProgress(ProtocolError):
    """A version advancement was requested while one is already running."""
