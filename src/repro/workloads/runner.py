"""One-call experiment runner used by benchmarks, examples, and tests.

``run_recording_experiment`` builds a system of the requested protocol,
installs a recording workload, drives Poisson arrivals for a simulated
duration, drains, and returns everything the analysis package needs.  The
same seed produces the *identical* arrival sequence and transaction mix on
every protocol, so cross-protocol comparisons are paired.

With ``stream=1`` the run switches to bounded-memory mode: arrivals are
walked lazily (one pending event per transaction class), the
:class:`~repro.txn.history.History` retires each transaction into O(1)
aggregates at completion (``retain=False``), the rolling auditor checks
reads as they retire instead of after the run, and an optional
``trace_path`` spills the full per-transaction trace to disk instead of
RAM.  Peak memory is then independent of how many transactions the run
processes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import typing

from repro.net.latency import LatencyModel, UniformLatency
from repro.parameters import check_parameters
from repro.runtime.config import NodeConfig
from repro.runtime.registry import PROTOCOLS
from repro.sim.distributions import Constant, RngRegistry, Uniform
from repro.txn.history import History
from repro.workloads.arrivals import (
    drive,
    drive_streaming,
    poisson_arrival_times,
    poisson_arrivals,
)
from repro.workloads.recording import RecordingConfig, RecordingWorkload

__all__ = [
    "PROTOCOLS",
    "ExperimentResult",
    "build_system",
    "collector_paused",
    "default_latency",
    "run_recording_experiment",
]

# ``PROTOCOLS`` is re-exported here for the historic import path
# (``from repro.workloads import PROTOCOLS``); it is the live registry, so
# iteration / membership / ``', '.join(...)`` keep working as they did on
# the old hand-maintained tuple, and newly registered protocols appear
# automatically.


def default_latency(jitter: float = 1.0) -> LatencyModel:
    """A mildly variable LAN: mean 1.0, enough jitter to reorder messages.

    ``jitter`` is the width of the uniform window around the mean:
    ``1.0`` (the default) is the historic ``Uniform(0.5, 1.5)`` model,
    ``0.0`` degenerates to a constant 1.0 — the regime where same-tick
    delivery batching has waves to coalesce.  Past ``2.0`` the window
    reaches below zero, which :class:`Uniform` refuses.
    """
    if jitter == 0.0:
        from repro.net.latency import constant_latency

        return constant_latency(1.0)
    return UniformLatency(Uniform(1.0 - jitter / 2, 1.0 + jitter / 2))


@dataclasses.dataclass
class ExperimentResult:
    """Everything measured in one run."""

    protocol: str
    system: typing.Any
    workload: RecordingWorkload
    duration: float
    submitted: int
    #: The run's audit includes the strict Theorem 4.1 snapshot oracle:
    #: 3V on the bitmask workload, with its read events kept.
    check_snapshots: bool
    #: Rolling serializability auditor (streaming runs with detail only);
    #: ``auditor.report()`` replaces the post-hoc ``analysis.audit``.
    auditor: typing.Any = None

    @property
    def history(self):
        return self.system.history

    @property
    def network(self):
        return self.system.network


def build_system(
    protocol: str,
    node_ids: typing.Sequence[str],
    seed: int = 0,
    latency: typing.Optional[LatencyModel] = None,
    advancement_period: float = 10.0,
    safety_delay: float = 5.0,
    allow_noncommuting: bool = False,
    op_service: float = 0.001,
    executor_capacity: int = 1,
    poll_interval: float = 0.5,
    faults=None,
    batch_delivery: bool = False,
    latency_jitter: float = 1.0,
    history=None,
    placement=None,
):
    """Instantiate any registered protocol behind a uniform interface.

    ``latency_jitter`` shapes the default latency model and is ignored
    when an explicit ``latency`` is supplied.  ``history`` injects a
    pre-built recording surface (a retiring :class:`History` for
    bounded-memory runs); ``None`` builds a retaining one.
    ``placement`` injects a :class:`repro.placement.PlacementState` for
    replicated runs; ``None`` (always the case at rf=1) keeps the
    unreplicated hot paths bit-identical.
    """
    if latency is None:
        latency = default_latency(latency_jitter)
    config = NodeConfig(
        op_service=Constant(op_service),
        executor_capacity=executor_capacity,
    )
    return PROTOCOLS.build(
        protocol, node_ids, seed=seed, latency=latency, node_config=config,
        advancement_period=advancement_period,
        safety_delay=safety_delay, poll_interval=poll_interval,
        allow_noncommuting=allow_noncommuting, faults=faults,
        batch_delivery=batch_delivery, history=history,
        placement=placement,
    )


class collector_paused(contextlib.ContextDecorator):
    """Keep CPython's cyclic collector off for the duration of a run.

    A run retains hundreds of thousands of long-lived *acyclic* records
    (history events, stored versions, messages in the delivery heap) that the
    generational collector would re-walk on the transaction path, and it
    makes no cyclic garbage per transaction (``tests/test_gc_pause.py``
    holds every registered protocol to that), so there is nothing for it
    to find.  On exit the collector goes back to the state it was found
    in, so the pause nests and leaves a caller's own ``gc.disable()``
    alone.

    The pause starts no collection of its own.  The young collection it
    held back is the interpreter's to start, at the caller's next tracked
    allocation; it walks whatever of the run is still there, which is why
    ``run_spec`` closes the system first (:meth:`System.close`) and why
    the exit allocates nothing that would start it inside the run.
    """

    def _recreate_cm(self):
        # As a decorator, a pause of its own for every call, so that a
        # function which re-enters itself cannot overwrite what the
        # outer call found.
        return type(self)()

    def __enter__(self):
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, exc_type, exc, traceback):
        if self._was_enabled:
            gc.enable()


@collector_paused()
def run_recording_experiment(
    protocol: str,
    nodes: int = 4,
    duration: float = 60.0,
    update_rate: float = 5.0,
    inquiry_rate: float = 2.0,
    audit_rate: float = 0.2,
    correction_rate: float = 0.0,
    entities: int = 50,
    span: int = 2,
    seed: int = 0,
    latency: typing.Optional[LatencyModel] = None,
    advancement_period: float = 10.0,
    safety_delay: float = 5.0,
    amount_mode: str = "bitmask",
    abort_fraction: float = 0.0,
    detail: bool = True,
    drop_rate: float = 0.0,
    dup_rate: float = 0.0,
    crash_count: int = 0,
    fault_seed: int = 0,
    partition_count: int = 0,
    coordinator_crashes: int = 0,
    stall_budget: float = 0.0,
    drain_limit: float = 100000.0,
    stream: int = 0,
    zipf: float = 0.0,
    with_observations: int = 1,
    trace_path=None,
    stream_aggregates: bool = True,
    replication_factor: int = 1,
    refresh_delay: float = 2.0,
    **system_kwargs,
) -> ExperimentResult:
    """Run one full recording experiment on the chosen protocol.

    Arrival processes and workload composition are derived from ``seed``
    only, independent of the protocol under test.  The fault axes
    (``drop_rate``/``dup_rate``/``crash_count``/``partition_count``,
    scheduled from ``fault_seed``) build a :class:`repro.faults.FaultPlan`
    storm; with all of them at zero no fault machinery is attached at all,
    keeping the seed path bit-identical.

    ``coordinator_crashes`` adds that many deterministic mid-wave crash /
    recover cycles of the protocol's advancement coordinator (one and a
    half time units after each of the first N periodic wave starts, down
    for 2.5).  Protocols without a registered coordinator ignore the axis
    entirely.  ``stall_budget`` is analysis-side only (the liveness
    watchdog's budget, consumed by :func:`repro.exp.summarize`); it is
    accepted here so spec ``run_kwargs`` round-trip.

    ``replication_factor`` places each (entity, slot) record on that many
    replica nodes and attaches a :class:`repro.placement.PlacementState`
    (read-one routing, write-all-available fan-out, recovery-readability
    with ``refresh_delay`` between a node's recovery and its refresh
    request).  At the default ``1`` no placement state is attached and
    the run is bit-identical to a pre-replication run.

    ``detail`` keeps every read's :class:`~repro.txn.history.ReadEvent`
    for the audit (and, on 3V's bitmask workload, its strict snapshot
    oracle: ``ExperimentResult.check_snapshots``); a retaining run with a
    ``trace_path`` also keeps the write events its exported trace lists.
    Those are the only write events a run keeps, so a caller of the
    conflict-graph oracle (:func:`repro.analysis.is_conflict_serializable`
    and its siblings, which raise on a history without writes) passes a
    ``trace_path``; ``os.devnull`` keeps the writes and drops the file.

    ``stream=1`` selects the bounded-memory mode (lazy arrivals +
    retiring history + rolling audit; see the module docstring).
    ``stream_aggregates=False`` is the differential-oracle hook: it keeps
    the lazy arrival scheduling of ``stream=1`` but retains the full
    history, so tests can compare retired aggregates bit-for-bit against
    exact end-of-run computation over the *same* trace.
    """
    # Every registered parameter, those that reach ``build_system``
    # through ``system_kwargs`` too, is checked before anything is built.
    check_parameters({**locals(), **system_kwargs})
    del stall_budget  # analysis-side knob; accepted for spec round-trips
    node_ids = [f"n{index:02d}" for index in range(nodes)]
    span = min(span, nodes)
    coordinator_id = PROTOCOLS[protocol].coordinator
    if coordinator_id is None:
        coordinator_crashes = 0  # the axis needs a coordinator to crash
    faults = system_kwargs.pop("faults", None)
    if faults is None and (drop_rate or dup_rate or crash_count
                           or partition_count or coordinator_crashes):
        from repro.faults import CrashEvent, FaultPlan

        faults = FaultPlan.storm(
            node_ids, drop_rate=drop_rate, dup_rate=dup_rate,
            crash_count=crash_count, fault_seed=fault_seed,
            duration=duration, partition_count=partition_count,
        )
        if coordinator_crashes:
            # Deterministic mid-wave coordinator crashes: the periodic
            # policy starts wave i+1 at advancement_period * (i+1), so a
            # crash 1.5 later lands inside the wave by construction (and
            # is trivially repeatable for the same spec).
            extra = tuple(
                CrashEvent(
                    node=coordinator_id,
                    at=advancement_period * (index + 1) + 1.5,
                    down_for=2.5,
                )
                for index in range(coordinator_crashes)
            )
            faults = dataclasses.replace(
                faults, crashes=faults.crashes + extra
            )
    stream_mode = bool(stream)
    retain = not (stream_mode and stream_aggregates)
    # The one place a run declares what it records: read events for the
    # audit, the rolling auditor and a streamed trace's read lines, write
    # events only for the exported trace of a retained history.
    events = ("read",) if detail else ()
    if detail and retain and trace_path is not None:
        events += ("write",)
    check_snapshots = bool(
        detail and protocol == "3v" and amount_mode == "bitmask")
    # Per-update ground truth only where a reader exists: on a retained
    # bitmask run with detail, the snapshot oracle and the chaos
    # harness's mask check; on a retiring one, the rolling auditor's
    # snapshot oracle, which consumes it as updates retire.
    track_amounts = (check_snapshots if not retain
                     else bool(detail and amount_mode == "bitmask"))
    # The reservoir stream draws from seed + 3: seeds +1/+2 already name
    # the workload and arrival registries.
    history = History(events=events, retain=retain, stats_seed=seed + 3)
    placement = system_kwargs.pop("placement", None)
    if placement is None and replication_factor > 1:
        from repro.placement import PlacementState

        placement = PlacementState(refresh_delay=refresh_delay)
    system = build_system(
        protocol, node_ids, seed=seed, latency=latency,
        advancement_period=advancement_period, safety_delay=safety_delay,
        allow_noncommuting=correction_rate > 0, faults=faults,
        history=history, placement=placement,
        **system_kwargs,
    )
    workload_config = RecordingConfig(
        nodes=node_ids, entities=entities, span=span,
        amount_mode=amount_mode, abort_fraction=abort_fraction,
        with_observations=bool(with_observations), zipf=zipf,
        replication_factor=replication_factor,
    )
    # The workload draws from its own registry so every protocol sees the
    # same transaction mix regardless of how the system consumes its RNG.
    workload = RecordingWorkload(workload_config, RngRegistry(seed + 1),
                                 track_amounts=track_amounts)
    workload.install(system)

    auditor = None
    tracer = None
    if not retain:
        if detail:
            # Imported lazily: repro.analysis never imports repro.workloads,
            # so the late edge cannot cycle.
            from repro.analysis.rolling import RollingAuditor

            auditor = RollingAuditor(
                history, workload, check_snapshots=check_snapshots
            )
            history.add_retire_sink(auditor.on_retire)
        if trace_path is not None:
            from repro.analysis.tracefile import TraceStreamWriter

            tracer = TraceStreamWriter(trace_path)
            history.add_retire_sink(tracer.on_retire)

    arrival_rngs = RngRegistry(seed + 2)
    classes = [
        ("arrivals.update", update_rate, workload.draw_recording,
         workload.build_recording, workload.make_recording),
        ("arrivals.inquiry", inquiry_rate, workload.draw_inquiry,
         workload.build_inquiry, workload.make_inquiry),
        ("arrivals.audit", audit_rate, workload.draw_audit,
         workload.build_audit, workload.make_audit),
    ]
    if correction_rate > 0:
        classes.append(
            ("arrivals.correction", correction_rate, workload.draw_correction,
             workload.build_correction, workload.make_correction)
        )
    submitted = 0
    drivers = []
    for stream_name, rate, draw, build, make_spec in classes:
        if stream_mode:
            drivers.append(drive_streaming(
                system,
                poisson_arrival_times(arrival_rngs, stream_name, rate,
                                      duration),
                make_spec,
            ))
        else:
            submitted += drive(
                system,
                poisson_arrivals(arrival_rngs, stream_name, rate, duration),
                draw, build,
            )

    system.run(until=duration)
    system.stop_policy()
    system.run_until_quiet(limit=drain_limit)
    submitted += sum(driver.count for driver in drivers)
    if tracer is not None:
        tracer.close(history)
    if trace_path is not None and tracer is None:
        from repro.analysis.tracefile import export_history

        export_history(system.history, trace_path)
    return ExperimentResult(
        protocol=protocol, system=system, workload=workload,
        duration=duration, submitted=submitted,
        check_snapshots=check_snapshots, auditor=auditor,
    )
