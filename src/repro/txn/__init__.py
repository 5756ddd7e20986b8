"""Transaction model: tree specs, runtime envelopes, execution history."""

from repro.txn.history import (
    AdvancementRecord,
    History,
    HistoryStats,
    ReadEvent,
    TxnKind,
    TxnRecord,
    WaitReason,
    WriteEvent,
    is_committed,
)
from repro.txn.streamstats import (
    ExactSum,
    LatencySummary,
    P2Quantile,
    ReservoirSample,
    StreamingStats,
    percentile,
)
from repro.txn.runtime import SubtxnInstance
from repro.txn.spec import (ReadOp, SubtxnSpec, TransactionSpec, TxnIndex,
                            WriteOp, subtxn_id)

__all__ = [
    "AdvancementRecord",
    "ExactSum",
    "History",
    "HistoryStats",
    "LatencySummary",
    "P2Quantile",
    "ReadEvent",
    "ReadOp",
    "ReservoirSample",
    "StreamingStats",
    "SubtxnInstance",
    "SubtxnSpec",
    "TransactionSpec",
    "TxnIndex",
    "TxnKind",
    "TxnRecord",
    "WaitReason",
    "WriteEvent",
    "WriteOp",
    "is_committed",
    "percentile",
    "subtxn_id",
]
