"""`ExperimentSummary` — the compact, worker-side result of one run.

A full :class:`~repro.workloads.runner.ExperimentResult` drags the whole
``System`` (nodes, stores, network mailboxes, the simulator) and a
detailed ``History`` along with it — megabytes of interlinked objects
that are expensive (and pointless) to pickle across a process boundary.
The fleet therefore reduces each run to this flat, JSON-able scorecard
*inside the worker*: throughput, latency percentiles, staleness, the
anomaly-audit verdict, advancement statistics, message counts, and a
determinism digest of the event/transaction counts.

The run counters (messages, faults, placement, the coordinator's runs
and failovers, the simulator's event count) are not copied here one by
one: each layer declares them once in a ``COUNTERS`` map, and
:func:`summarize` takes them whole from
:meth:`repro.runtime.System.counters`.  Only the figures of the history's
fold, the audit report and the stall watchdog are computed here.

``run_spec`` is the one function a worker process executes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing

from repro.analysis import advancement_stalls, audit
from repro.runtime.registry import PROTOCOLS
from repro.txn.history import TxnKind
from repro.workloads.runner import collector_paused, run_recording_experiment

from repro.exp.spec import ExperimentSpec


@dataclasses.dataclass(frozen=True, kw_only=True)
class ExperimentSummary:
    """Everything the tables and gates need from one finished run.

    Flat floats/ints only — picklable, JSON round-trippable, and small
    enough that shipping thousands of them between processes is free.
    A counter of a layer the run did not wire is absent from
    ``System.counters()`` and reads its default, 0; the defaults also
    let cached summaries from before a field existed deserialize.
    """

    spec_digest: str
    protocol: str
    nodes: int
    duration: float
    submitted: int
    # committed work, by kind
    committed_updates: int
    committed_reads: int
    committed_noncommuting: int
    aborted: int
    compensated: int
    # rates and latency distribution
    update_throughput: float
    update_mean: float
    update_p50: float
    update_p95: float
    update_p99: float
    update_max: float
    read_mean: float
    read_p95: float
    staleness_mean: float
    staleness_max: float
    # audit verdict
    reads_checked: int
    fractured_reads: int
    snapshot_mismatches: int
    audit_clean: bool
    max_remote_wait: float
    # advancement machinery (zero when no coordinator ran)
    advancement_runs: int = 0
    advancement_counter_polls: int
    # network traffic
    messages_total: int
    messages_user: int
    messages_control: int
    # determinism canaries
    sim_events: int
    txn_count: int
    # fault machinery (all zero on fault-free runs)
    retransmits: int = 0
    dup_suppressed: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    crashes: int = 0
    recoveries: int = 0
    # delivery batching (zero unless the spec set batch_delivery)
    delivery_batches: int = 0
    batched_messages: int = 0
    # replication / placement (all zero at replication_factor 1)
    reads_rerouted: int = 0
    reads_gated: int = 0
    writes_skipped: int = 0
    refresh_ops_applied: int = 0
    refreshes_completed: int = 0
    self_refreshes: int = 0
    unreadable_reads_served: int = 0
    # partition / coordinator-failure machinery (zero unless enabled)
    partitions_cut: int = 0
    stale_epochs_fenced: int = 0
    coordinator_crashes: int = 0
    coordinator_recoveries: int = 0
    coordinator_takeovers: int = 0
    coordinator_epoch: int = 0
    # advancement liveness watchdog (stalls = budget-exceeding gaps
    # between read-version advancements; zero when no coordinator ran)
    stall_count: int = 0
    stall_time: float = 0.0
    longest_stall: float = 0.0
    stall_staleness_max: float = 0.0
    # worker-side wall-clock of the simulation itself (excluded from the
    # determinism digest: it is the one machine-dependent field, kept so
    # scaling benchmarks can compare configurations through the fleet)
    wall_seconds: float = 0.0
    # peak python heap during the run per tracemalloc, 0 unless the caller
    # asked ``run_spec`` to measure it (machine- and version-dependent, so
    # excluded from the determinism digest like wall_seconds)
    peak_tracemalloc_bytes: int = 0

    def determinism_digest(self) -> str:
        """Hex digest of the run's discrete counts.

        Depends only on simulation behaviour (never on wall-clock), so it
        must be bit-identical across worker counts, hosts, and backends.
        """
        payload = (
            self.spec_digest, self.sim_events, self.txn_count,
            self.submitted, self.committed_updates, self.committed_reads,
            self.committed_noncommuting, self.aborted,
            self.fractured_reads, self.snapshot_mismatches,
        )
        canonical = json.dumps(payload, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: typing.Mapping[str, typing.Any]
                  ) -> "ExperimentSummary":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


def summarize(spec: ExperimentSpec, result, report) -> ExperimentSummary:
    """Reduce a finished run + audit report to a summary: the run
    counters as the system reads them, the rest from the history's fold,
    the audit report and the stall watchdog."""
    history = result.history
    fold = history.stats()  # the run's one fold: read every figure from it
    updates = fold.latency(TxnKind.UPDATE)
    reads = fold.latency(TxnKind.READ, which="global")
    staleness = fold.staleness()
    committed_updates = fold.count(TxnKind.UPDATE)
    # The liveness watchdog only makes sense where an advancement
    # coordinator drives vr; on a coordinator-free baseline a whole-run
    # "stall" would be noise, not signal.
    stalls = None
    if PROTOCOLS[spec.protocol].coordinator is not None:
        budget = spec.stall_budget or 2.0 * spec.advancement_period
        stalls = advancement_stalls(history, result.duration, budget)
    return ExperimentSummary(
        spec_digest=spec.digest(),
        protocol=spec.protocol,
        nodes=spec.nodes,
        duration=result.duration,
        submitted=result.submitted,
        committed_updates=committed_updates,
        committed_reads=fold.count(TxnKind.READ),
        committed_noncommuting=fold.count(TxnKind.NONCOMMUTING),
        aborted=fold.aborted,
        compensated=report.compensated_txns,
        update_throughput=committed_updates / result.duration,
        update_mean=updates.mean,
        update_p50=updates.p50,
        update_p95=updates.p95,
        update_p99=updates.p99,
        update_max=updates.max,
        read_mean=reads.mean,
        read_p95=reads.p95,
        staleness_mean=staleness.mean,
        staleness_max=staleness.max,
        reads_checked=report.reads_checked,
        fractured_reads=report.fractured_reads,
        snapshot_mismatches=report.snapshot_mismatches,
        audit_clean=report.clean,
        max_remote_wait=fold.max_remote_wait(),
        advancement_counter_polls=sum(
            a.counter_polls for a in history.advancements),
        txn_count=history.total_txns,
        **result.system.counters(),
        stall_count=stalls.count if stalls else 0,
        stall_time=stalls.total if stalls else 0.0,
        longest_stall=stalls.longest if stalls else 0.0,
        stall_staleness_max=stalls.staleness_max if stalls else 0.0,
    )


def audit_result(result):
    """Score a finished :class:`ExperimentResult`: by its rolling auditor,
    which checked reads as they retired (``report()`` is its final exact
    drain), else by the post-hoc :func:`repro.analysis.audit` over the
    read events the run kept (none, when it retired them unaudited).  The
    run decided whether the snapshot oracle applies
    (``result.check_snapshots``)."""
    if result.auditor is not None:
        return result.auditor.report()
    return audit(result.history, result.workload,
                 check_snapshots=result.check_snapshots)


@collector_paused()
def run_spec(spec: ExperimentSpec,
             measure_memory: bool = False) -> ExperimentSummary:
    """Run one experiment end-to-end and summarize it.

    This is the fleet's worker entry point: heavyweight ``System`` /
    ``History`` objects live and die inside the calling process.

    ``measure_memory=True`` wraps the simulation in ``tracemalloc`` and
    fills ``peak_tracemalloc_bytes`` — the volume benchmark's memory
    gate.  Tracing roughly doubles wall-clock, so throughput cells leave
    it off.

    The collector pause of :func:`run_recording_experiment` is extended
    over audit and summarize, so the audit does not open with a young
    collection over the whole live ``System``, and the system is closed
    before the pause ends: the run is freed by reference counting on the
    way out instead of being left, one dead cycle holding every record,
    to the caller's next collection.
    """
    import time

    if measure_memory:
        import tracemalloc

        tracemalloc.start()
    t0 = time.perf_counter()
    result = run_recording_experiment(spec.protocol, **spec.run_kwargs())
    wall = time.perf_counter() - t0
    peak = 0
    if measure_memory:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    report = audit_result(result)
    summary = summarize(spec, result, report)
    result.system.close()
    return dataclasses.replace(
        summary, wall_seconds=wall, peak_tracemalloc_bytes=peak,
    )
