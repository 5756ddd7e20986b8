"""Anomaly auditing: one call that scores a finished run.

Combines the serializability oracles and abort accounting into a single
:class:`AnomalyReport`, the unit the C4 correctness benchmark tabulates per
system.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.analysis.serializability import (
    Violation,
    _count,
    _fractured,
    _reads_by_txn_and_key,
    _snapshot,
)
from repro.txn.history import History, TxnKind


@dataclasses.dataclass
class AnomalyReport:
    """Correctness scorecard for one simulation run."""

    reads_checked: int
    fractured_reads: int
    snapshot_mismatches: int
    aborted_txns: int
    compensated_txns: int
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
        """Fraction of examined (read, key) pairs that were fractured."""
        if self.reads_checked == 0:
            return 0.0
        return self.fractured_reads / self.reads_checked


def audit(history: History, workload=None,
          check_snapshots: bool = False) -> AnomalyReport:
    """Score a run's history.

    Args:
        history: A *detailed* history (``detail=True``).
        workload: Required for ``check_snapshots``; the
            :class:`~repro.workloads.recording.RecordingWorkload` that
            generated the traffic (must be in ``"bitmask"`` mode).
        check_snapshots: Also run the strict Theorem 4.1 oracle.
    """
    if check_snapshots and workload is None:
        raise ValueError("snapshot checking requires the workload oracle")
    # Grouped once; both checks and the count walk the same grouping.
    grouped = _reads_by_txn_and_key(history)
    fractured = _fractured(grouped)
    snapshot = _snapshot(history, workload, grouped) if check_snapshots else []
    return AnomalyReport(
        reads_checked=_count(grouped),
        fractured_reads=len(fractured),
        snapshot_mismatches=len(snapshot),
        aborted_txns=history.aborted_count(),
        compensated_txns=history.compensated_count(),
        violations=fractured + snapshot,
    )


def committed_counts(history: History) -> typing.Dict[str, int]:
    """Committed transactions by kind (convenience for tables)."""
    return {
        kind: history.count(kind)
        for kind in (TxnKind.UPDATE, TxnKind.READ, TxnKind.NONCOMMUTING)
    }
