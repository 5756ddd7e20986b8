"""`ExperimentSummary` — the compact, worker-side result of one run.

A full :class:`~repro.workloads.runner.ExperimentResult` drags the whole
``System`` (nodes, stores, network mailboxes, the simulator) and a
detailed ``History`` along with it — megabytes of interlinked objects
that are expensive (and pointless) to pickle across a process boundary.
The fleet therefore reduces each run to this flat, JSON-able scorecard
*inside the worker*: throughput, latency percentiles, staleness, the
anomaly-audit verdict, advancement statistics, message counts, and a
determinism digest of the event/transaction counts.

``run_spec`` is the one function a worker process executes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing

from repro.analysis import advancement_stalls, audit, throughput
from repro.txn.history import TxnKind
from repro.workloads.runner import collector_paused, run_recording_experiment

from repro.exp.spec import ExperimentSpec


@dataclasses.dataclass(frozen=True)
class ExperimentSummary:
    """Everything the tables and gates need from one finished run.

    Flat floats/ints only — picklable, JSON round-trippable, and small
    enough that shipping thousands of them between processes is free.
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
    # advancement machinery
    advancement_runs: int
    advancement_counter_polls: int
    # network traffic
    messages_total: int
    messages_user: int
    messages_control: int
    # determinism canaries
    sim_events: int
    txn_count: int
    # fault machinery (all zero on fault-free runs; defaulted so cached
    # summaries from before these fields existed still deserialize)
    retransmits: int = 0
    dup_suppressed: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    crashes: int = 0
    recoveries: int = 0
    # delivery batching (zero unless the spec set batch_delivery)
    delivery_batches: int = 0
    batched_messages: int = 0
    # replication / placement (all zero unless the spec set
    # replication_factor > 1; defaulted so pre-replication summaries
    # still deserialize)
    reads_rerouted: int = 0
    reads_gated: int = 0
    writes_skipped: int = 0
    refresh_ops_applied: int = 0
    refreshes_completed: int = 0
    self_refreshes: int = 0
    unreadable_reads_served: int = 0
    # partition / coordinator-failure machinery (all zero unless the spec
    # enabled those axes; defaulted so cached summaries deserialize)
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
    """Reduce a finished run + audit report to a summary."""
    history = result.history
    fold = history.stats()  # the run's one fold: read every figure from it
    updates = fold.latency(TxnKind.UPDATE)
    reads = fold.latency(TxnKind.READ, which="global")
    staleness = fold.staleness()
    stats = result.system.network.stats
    coordinator = getattr(result.system, "coordinator", None)
    if coordinator is not None:
        advancement_runs = coordinator.completed_runs
    else:
        advancement_runs = len(history.advancements)
    counter_polls = sum(a.counter_polls for a in history.advancements)
    placement = getattr(result.system, "placement", None)
    placement_counters = placement.counters() if placement is not None else {}
    # The liveness watchdog only makes sense where an advancement
    # coordinator actually drives vr (the epoch attribute is the
    # duck-typed marker for that — baselines either have no coordinator
    # or an epoch-less one, and a whole-run "stall" there would be
    # noise, not signal).
    stalls = None
    if getattr(coordinator, "epoch", 0):
        budget = spec.stall_budget or 2.0 * spec.advancement_period
        stalls = advancement_stalls(history, result.duration, budget)
    return ExperimentSummary(
        spec_digest=spec.digest(),
        protocol=spec.protocol,
        nodes=spec.nodes,
        duration=result.duration,
        submitted=result.submitted,
        committed_updates=history.count(TxnKind.UPDATE),
        committed_reads=history.count(TxnKind.READ),
        committed_noncommuting=history.count(TxnKind.NONCOMMUTING),
        aborted=history.aborted_count(),
        compensated=report.compensated_txns,
        update_throughput=throughput(history, result.duration, kind="update"),
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
        advancement_runs=advancement_runs,
        advancement_counter_polls=counter_polls,
        messages_total=stats.total_sent,
        messages_user=stats.user_messages,
        messages_control=stats.control_messages,
        sim_events=result.system.sim.scheduled_count,
        txn_count=history.total_txns,
        retransmits=stats.retransmits,
        dup_suppressed=stats.dup_suppressed,
        messages_dropped=stats.dropped,
        messages_duplicated=stats.duplicated,
        crashes=getattr(result.system, "crash_count", 0),
        recoveries=getattr(result.system, "recovery_count", 0),
        delivery_batches=stats.batches,
        batched_messages=stats.batched_messages,
        reads_rerouted=placement_counters.get("reads_rerouted", 0),
        reads_gated=placement_counters.get("reads_gated", 0),
        writes_skipped=placement_counters.get("writes_skipped", 0),
        refresh_ops_applied=placement_counters.get("refresh_ops_applied", 0),
        refreshes_completed=placement_counters.get("refreshes_completed", 0),
        self_refreshes=placement_counters.get("self_refreshes", 0),
        unreadable_reads_served=placement_counters.get(
            "unreadable_reads_served", 0),
        partitions_cut=stats.partition_dropped,
        stale_epochs_fenced=stats.stale_epoch_dropped,
        coordinator_crashes=getattr(coordinator, "crashes", 0),
        coordinator_recoveries=getattr(coordinator, "recoveries", 0),
        coordinator_takeovers=getattr(coordinator, "takeovers", 0),
        coordinator_epoch=getattr(coordinator, "epoch", 0),
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
