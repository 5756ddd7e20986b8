"""Reproduction of "Scalable Versioning in Distributed Databases with
Commuting Updates" (Jagadish, Mumick, Rabinovich; ICDE 1997).

The package implements the paper's **3V** multiversioning protocol and its
**NC3V** extension for non-commuting updates on top of a deterministic
discrete-event simulation of a distributed database, together with the
three baseline designs the paper argues against (global two-phase commit,
no coordination, manual versioning), data-recording workloads, and
analysis tooling for serializability, anomaly, staleness, and scaling
measurements.

Quick start::

    from repro import run_recording_experiment, audit

    result = run_recording_experiment("3v", nodes=4, duration=30.0, seed=1)
    report = audit(result.history, result.workload, check_snapshots=True)
    assert report.clean

See ``README.md`` for the full tour and ``DESIGN.md`` for the system map.
"""

from repro.analysis import (
    AnomalyReport,
    LatencySummary,
    Table,
    audit,
    latency_summary,
    max_remote_wait,
    staleness_summary,
    throughput,
)
from repro.baselines import (
    ManualVersioningSystem,
    NoCoordSystem,
    TwoPCSystem,
)
from repro.core import (
    AdvancementCoordinator,
    CountPolicy,
    InvariantMonitor,
    ManualPolicy,
    NodeConfig,
    PeriodicPolicy,
    ThreeVNode,
    ThreeVSystem,
    check_all,
)
from repro.errors import (
    InvariantViolation,
    ProtocolError,
    ReproError,
)
from repro.net import LinkLatency, Network, UniformLatency, constant_latency
from repro.sim import Constant, Exponential, LogNormal, RngRegistry, Simulator, Uniform
from repro.storage import Assign, Increment, MVStore, Record
from repro.txn import (
    History,
    ReadOp,
    SubtxnSpec,
    TransactionSpec,
    TxnKind,
    WriteOp,
)
from repro.workloads import (
    RecordingConfig,
    RecordingWorkload,
    build_system,
    hospital_workload,
    retail_workload,
    run_recording_experiment,
    telecom_workload,
)

__version__ = "1.0.0"

__all__ = [
    "AdvancementCoordinator",
    "AnomalyReport",
    "Assign",
    "Constant",
    "CountPolicy",
    "Exponential",
    "History",
    "Increment",
    "InvariantMonitor",
    "InvariantViolation",
    "LatencySummary",
    "LinkLatency",
    "LogNormal",
    "MVStore",
    "ManualPolicy",
    "ManualVersioningSystem",
    "Network",
    "NoCoordSystem",
    "NodeConfig",
    "PeriodicPolicy",
    "ProtocolError",
    "ReadOp",
    "Record",
    "RecordingConfig",
    "RecordingWorkload",
    "ReproError",
    "RngRegistry",
    "Simulator",
    "SubtxnSpec",
    "Table",
    "ThreeVNode",
    "ThreeVSystem",
    "TransactionSpec",
    "TwoPCSystem",
    "TxnKind",
    "Uniform",
    "UniformLatency",
    "WriteOp",
    "audit",
    "build_system",
    "check_all",
    "constant_latency",
    "hospital_workload",
    "latency_summary",
    "max_remote_wait",
    "retail_workload",
    "run_recording_experiment",
    "staleness_summary",
    "telecom_workload",
    "throughput",
]


# Called only by benchmarks/e2e/child.py, which PR 18 (it deleted the compiled
# kernel) could not edit; the next `benchmark` PR removes the calls and these.
def build_mode() -> str:
    return "pure"


def accel_backend() -> None:
    return None
