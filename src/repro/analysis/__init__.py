"""Analysis: serializability oracles, anomaly audits, metrics, tables."""

from repro.analysis.conflictgraph import (
    ConflictEdge,
    build_serialization_graph,
    equivalent_serial_order,
    is_conflict_serializable,
    serialization_cycles,
)
from repro.analysis.metrics import (
    LatencySummary,
    StallSummary,
    advancement_stalls,
    latency_summary,
    max_remote_wait,
    percentile,
    staleness_summary,
    throughput,
    wait_summary,
)
from repro.analysis.report import Table, audit_verdict, fmt
from repro.analysis.rolling import (
    AnomalyReport,
    RollingAuditor,
    atomic_visibility_violations,
    audit,
)
from repro.analysis.stats import (
    ConfidenceInterval,
    mean_ci,
)
from repro.analysis.tracefile import (
    TraceStreamWriter,
    export_history,
    load_txn_records,
)
from repro.analysis.serializability import CommittedMasks, Violation

__all__ = [
    "AnomalyReport",
    "CommittedMasks",
    "ConfidenceInterval",
    "ConflictEdge",
    "LatencySummary",
    "RollingAuditor",
    "StallSummary",
    "Table",
    "TraceStreamWriter",
    "Violation",
    "advancement_stalls",
    "atomic_visibility_violations",
    "audit",
    "audit_verdict",
    "build_serialization_graph",
    "equivalent_serial_order",
    "is_conflict_serializable",
    "serialization_cycles",
    "export_history",
    "fmt",
    "load_txn_records",
    "latency_summary",
    "max_remote_wait",
    "mean_ci",
    "percentile",
    "staleness_summary",
    "throughput",
    "wait_summary",
]
