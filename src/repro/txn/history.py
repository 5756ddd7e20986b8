"""Execution history recording.

Every protocol implementation writes what it does into a :class:`History`:
per-transaction lifecycle records, optional per-operation read/write events,
wait events, and version-advancement phase timestamps.  The analysis package
(:mod:`repro.analysis`) consumes these to check serializability, detect
fractured reads, and compute latency/staleness/throughput — so the checkers
work identically across 3V and all baselines.

Two implementations share the recording surface:

* :class:`History` — materializes every :class:`TxnRecord` (and, with
  ``detail=True``, every read/write event).  Memory is O(transactions);
  the full post-hoc analysis toolbox applies.
* :class:`StreamingHistory` — folds each transaction into online
  aggregates (:mod:`repro.txn.streamstats`) the moment it completes and
  then *retires* its record.  Memory is O(in-flight transactions), which
  an open-loop workload bounds by rate × latency — the volume axis.
"""

from __future__ import annotations

import dataclasses
import types
import typing

from repro.txn.streamstats import (
    DEFAULT_RESERVOIR,
    ExactSum,
    LatencySummary,
    StreamingStats,
    derived_rng,
)


class TxnKind:
    """Transaction classification constants."""

    READ = "read"
    UPDATE = "update"
    NONCOMMUTING = "noncommuting"


class WaitReason:
    """Why a subtransaction was delayed (for Theorem 4.2 accounting)."""

    EXECUTOR = "executor"  # local executor queue (local concurrency control)
    LOCK = "lock"  # lock-table conflict
    REMOTE = "remote"  # waiting for a remote response (2PC, global reads)
    VERSION_GATE = "version-gate"  # NC3V's "wait until vu == vr+1"
    ADVANCEMENT = "advancement"  # blocked by a (synchronous) advancement


@dataclasses.dataclass(slots=True)
class TxnRecord:
    """Lifecycle of one transaction."""

    name: str
    kind: str
    version: typing.Optional[int]
    submit_time: float
    root_node: str
    #: Root subtransaction committed locally (user-perceived latency for 3V).
    local_commit_time: typing.Optional[float] = None
    #: Every subtransaction in the tree has completed.
    global_complete_time: typing.Optional[float] = None
    aborted: bool = False
    abort_reason: str = ""
    compensated: bool = False
    subtxn_count: int = 0
    #: Total delay broken down by :class:`WaitReason`.
    waits: typing.Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Values returned by read operations, in execution order.
    reads: typing.List[typing.Tuple[typing.Hashable, typing.Any]] = (
        dataclasses.field(default_factory=list)
    )

    @property
    def local_latency(self) -> typing.Optional[float]:
        if self.local_commit_time is None:
            return None
        return self.local_commit_time - self.submit_time

    @property
    def global_latency(self) -> typing.Optional[float]:
        if self.global_complete_time is None:
            return None
        return self.global_complete_time - self.submit_time

    @property
    def total_wait(self) -> float:
        return sum(self.waits.values())

    @property
    def remote_wait(self) -> float:
        """Delay caused by non-local activity — Theorem 4.2 says the 3V
        protocol keeps this at exactly zero for well-behaved transactions."""
        return (
            self.waits.get(WaitReason.REMOTE, 0.0)
            + self.waits.get(WaitReason.ADVANCEMENT, 0.0)
            + self.waits.get(WaitReason.VERSION_GATE, 0.0)
        )


@dataclasses.dataclass(frozen=True, slots=True)
class ReadEvent:
    """One read operation (recorded only when ``detail`` is on)."""

    time: float
    txn: str
    subtxn: str
    node: str
    key: typing.Hashable
    version_requested: typing.Optional[int]
    version_used: typing.Optional[int]
    value: typing.Any


@dataclasses.dataclass(frozen=True, slots=True)
class WriteEvent:
    """One write operation (recorded only when ``detail`` is on)."""

    time: float
    txn: str
    subtxn: str
    node: str
    key: typing.Hashable
    version: typing.Optional[int]
    versions_written: int
    operation: typing.Any
    compensating: bool = False
    #: Exact version numbers touched (a dual write lists both); defaults
    #: to just ``version`` when the writer doesn't say otherwise.
    versions: typing.Optional[typing.Tuple[int, ...]] = None

    @property
    def touched_versions(self) -> typing.Tuple[int, ...]:
        if self.versions is not None:
            return self.versions
        return (self.version,) if self.version is not None else ()


@dataclasses.dataclass
class AdvancementRecord:
    """Timestamps of one run of the version-advancement protocol."""

    new_update_version: int
    started: float
    phase1_done: typing.Optional[float] = None  # all nodes on new vu
    phase2_done: typing.Optional[float] = None  # old vu quiescent
    phase3_done: typing.Optional[float] = None  # all nodes on new vr
    gc_done: typing.Optional[float] = None
    counter_polls: int = 0

    @property
    def duration(self) -> typing.Optional[float]:
        if self.gc_done is None:
            return None
        return self.gc_done - self.started

    @property
    def read_visible_at(self) -> typing.Optional[float]:
        """When queries could first see the advanced data (end of phase 3)."""
        return self.phase3_done


def is_committed(record: TxnRecord,
                 kind: typing.Optional[str] = None) -> bool:
    """The one committed-transaction predicate, shared by both histories."""
    return not record.aborted and (kind is None or record.kind == kind)


class History:
    """Append-only record of everything a simulation did.

    Args:
        detail: When ``False``, per-operation read/write events are not
            stored (large benchmark runs); transaction lifecycle records and
            aggregate statistics are always kept.
    """

    #: Streaming histories retire records; this one retains them.
    streaming = False

    def __init__(self, detail: bool = True):
        self.detail = detail
        #: Whether :meth:`wrote` stores the event it is given; executors
        #: ask before building one.  (For reads the question is ``detail``:
        #: without it :meth:`note_read` takes the ``(key, value)`` alone.)
        self.keeps_writes = detail
        self.txns: typing.Dict[str, TxnRecord] = {}
        self.read_events: typing.List[ReadEvent] = []
        self.write_events: typing.List[WriteEvent] = []
        self.advancements: typing.List[AdvancementRecord] = []
        #: Wait-free check support: count of wait episodes per reason.
        self.wait_episodes: typing.Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def begin_txn(self, name: str, kind: str, version: typing.Optional[int],
                  time: float, root_node: str) -> TxnRecord:
        if name in self.txns:
            raise ValueError(f"duplicate transaction name: {name!r}")
        record = TxnRecord(
            name=name, kind=kind, version=version, submit_time=time,
            root_node=root_node,
        )
        self.txns[name] = record
        return record

    def txn(self, name: str) -> TxnRecord:
        return self.txns[name]

    def locally_committed(self, name: str, time: float) -> None:
        record = self.txns[name]
        if record.local_commit_time is None:
            record.local_commit_time = time

    def globally_completed(self, name: str, time: float) -> None:
        self.txns[name].global_complete_time = time

    def aborted(self, name: str, time: float, reason: str = "") -> None:
        record = self.txns[name]
        record.aborted = True
        record.abort_reason = reason
        if record.global_complete_time is None:
            record.global_complete_time = time

    def compensated(self, name: str) -> None:
        self.txns[name].compensated = True

    def waited(self, name: str, reason: str, duration: float) -> None:
        if duration <= 0:
            return
        record = self.txns[name]
        record.waits[reason] = record.waits.get(reason, 0.0) + duration
        self.wait_episodes[reason] = self.wait_episodes.get(reason, 0) + 1

    # ------------------------------------------------------------------
    # Operation events
    # ------------------------------------------------------------------

    def read(self, event: ReadEvent) -> None:
        record = self.txns.get(event.txn)
        if record is not None:
            record.reads.append((event.key, event.value))
        if self.detail:
            self.read_events.append(event)

    def note_read(self, txn: str, key, value) -> None:
        """Record a read's ``(key, value)`` without a :class:`ReadEvent`.

        The detail-off fast path: executors call this instead of building a
        ReadEvent that :meth:`read` would immediately discard.  Serializable
        analysis only needs the per-transaction read values, which this
        keeps.
        """
        record = self.txns.get(txn)
        if record is not None:
            record.reads.append((key, value))

    def wrote(self, event: WriteEvent) -> None:
        if self.detail:
            self.write_events.append(event)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def committed_txns(self, kind: typing.Optional[str] = None
                       ) -> typing.List[TxnRecord]:
        """Transactions that finished without aborting, optionally by kind."""
        return [
            record
            for record in self.txns.values()
            if is_committed(record, kind)
        ]

    def aborted_txns(self) -> typing.List[TxnRecord]:
        return [record for record in self.txns.values() if record.aborted]

    def count(self, kind: typing.Optional[str] = None) -> int:
        """Committed transactions, optionally by kind (allocation-free)."""
        return sum(
            1 for record in self.txns.values() if is_committed(record, kind)
        )

    def aborted_count(self) -> int:
        return sum(1 for record in self.txns.values() if record.aborted)

    def compensated_count(self) -> int:
        return sum(1 for record in self.txns.values() if record.compensated)

    @property
    def total_txns(self) -> int:
        """Every transaction ever begun (committed or aborted)."""
        return len(self.txns)


#: Signature of a streaming retirement sink: called once per transaction,
#: at global completion, with the (about-to-be-discarded) record and its
#: detailed read events (empty tuple when ``detail`` is off).
RetireSink = typing.Callable[
    [TxnRecord, typing.Sequence[ReadEvent]], None
]


class StreamingHistory:
    """A :class:`History` that folds completed transactions into online
    aggregates instead of retaining them.

    Implements the same recording surface (``begin_txn`` … ``wrote``) so
    every protocol runs unchanged; the difference is the retirement step:
    ``globally_completed`` is called exactly once per transaction (by both
    the plain runtime and the two-phase engine), and that is where the
    record is folded — per-kind commit/abort/compensation tallies,
    wait-episode totals, latency and staleness populations
    (:class:`~repro.txn.streamstats.StreamingStats`: exact mean/max,
    reservoir-exact small-run percentiles, P² beyond) — and discarded.
    A population only queues the value there and does its arithmetic a
    batch at a time, or when it is read; the answers are the same.

    ``self.txns`` holds only *in-flight* transactions, so memory is
    O(concurrency), not O(transactions).  Post-hoc queries that need the
    materialized records (``committed_txns`` / ``aborted_txns``) raise;
    attach a retirement sink (rolling audit, JSONL spill) for anything
    that must see individual transactions.

    Args:
        detail: Keep per-transaction read events until retirement and
            hand them to the sinks (needed by the rolling serializability
            check).  Never retained globally.
        stats_seed: Seed for the reservoir-sampling RNG streams (derive
            it from the experiment seed so summaries are bit-deterministic
            across hosts, worker counts, and backends).
        reservoir: Per-population reservoir capacity; runs whose
            populations fit are summarized exactly.
    """

    streaming = True
    #: :meth:`wrote` drops every event, whatever ``detail`` says.
    keeps_writes = False

    def __init__(self, detail: bool = True, stats_seed: int = 0,
                 reservoir: int = DEFAULT_RESERVOIR):
        self.detail = detail
        #: In-flight transactions only (records retire at completion).
        self.txns: typing.Dict[str, TxnRecord] = {}
        self.advancements: typing.List[AdvancementRecord] = []
        self.wait_episodes: typing.Dict[str, int] = {}
        #: Always empty: streaming never retains global event lists.  Kept
        #: as attributes so surface-probing code finds lists, not errors.
        self.read_events: typing.List[ReadEvent] = []
        self.write_events: typing.List[WriteEvent] = []
        self._stats_seed = stats_seed
        self._reservoir = reservoir
        self._sinks: typing.List[RetireSink] = []
        self._pending_events: typing.Dict[str, typing.List[ReadEvent]] = {}
        self._retired = 0
        self._aborted = 0
        self._compensated = 0
        self._committed: typing.Dict[str, int] = {}
        #: (kind-or-None, "local"/"global") -> latency population.
        self._latency: typing.Dict[
            typing.Tuple[typing.Optional[str], str], StreamingStats
        ] = {}
        self._staleness: typing.Optional[StreamingStats] = None
        #: (kind-or-None, reason) -> exactly-rounded wait total.
        self._waits: typing.Dict[
            typing.Tuple[typing.Optional[str], str], ExactSum
        ] = {}
        self._max_remote: typing.Dict[typing.Optional[str], float] = {}
        #: Incremental mirror of ``closed_at_from_history``.
        self._closed_at: typing.Dict[int, float] = {0: 0.0}
        self._closed_view = types.MappingProxyType(self._closed_at)
        self._adv_scan = 0

    def add_retire_sink(self, sink: RetireSink) -> None:
        """Attach a callback invoked for every retiring transaction."""
        self._sinks.append(sink)

    # ------------------------------------------------------------------
    # Transaction lifecycle (the shared recording surface)
    # ------------------------------------------------------------------

    def begin_txn(self, name: str, kind: str, version: typing.Optional[int],
                  time: float, root_node: str) -> TxnRecord:
        if name in self.txns:
            raise ValueError(f"duplicate transaction name: {name!r}")
        record = TxnRecord(
            name=name, kind=kind, version=version, submit_time=time,
            root_node=root_node,
        )
        self.txns[name] = record
        return record

    def txn(self, name: str) -> TxnRecord:
        return self.txns[name]

    def locally_committed(self, name: str, time: float) -> None:
        record = self.txns[name]
        if record.local_commit_time is None:
            record.local_commit_time = time

    def globally_completed(self, name: str, time: float) -> None:
        record = self.txns.pop(name)
        record.global_complete_time = time
        events = self._pending_events.pop(name, ())
        for sink in self._sinks:
            sink(record, events)
        self._fold(record)

    def aborted(self, name: str, time: float, reason: str = "") -> None:
        record = self.txns[name]
        record.aborted = True
        record.abort_reason = reason
        if record.global_complete_time is None:
            record.global_complete_time = time

    def compensated(self, name: str) -> None:
        self.txns[name].compensated = True

    def waited(self, name: str, reason: str, duration: float) -> None:
        if duration <= 0:
            return
        record = self.txns[name]
        record.waits[reason] = record.waits.get(reason, 0.0) + duration
        self.wait_episodes[reason] = self.wait_episodes.get(reason, 0) + 1

    # ------------------------------------------------------------------
    # Operation events
    # ------------------------------------------------------------------

    def read(self, event: ReadEvent) -> None:
        record = self.txns.get(event.txn)
        if record is not None:
            record.reads.append((event.key, event.value))
            if self.detail:
                self._pending_events.setdefault(event.txn, []).append(event)

    def note_read(self, txn: str, key, value) -> None:
        record = self.txns.get(txn)
        if record is not None:
            record.reads.append((key, value))

    def wrote(self, event: WriteEvent) -> None:
        """Write events are not needed by any streaming aggregate
        (``keeps_writes`` tells executors not to build them)."""

    # ------------------------------------------------------------------
    # Retirement folding
    # ------------------------------------------------------------------

    def _fold(self, record: TxnRecord) -> None:
        self._retired += 1
        if record.compensated:
            self._compensated += 1
        if record.aborted:
            self._aborted += 1
            return
        kind = record.kind
        self._committed[kind] = self._committed.get(kind, 0) + 1
        local = record.local_latency
        if local is not None:
            self._latency_stats(kind, "local").add(local)
            self._latency_stats(None, "local").add(local)
        global_latency = record.global_latency
        if global_latency is not None:
            self._latency_stats(kind, "global").add(global_latency)
            self._latency_stats(None, "global").add(global_latency)
        for reason, duration in record.waits.items():
            self._wait_total(kind, reason).add(duration)
            self._wait_total(None, reason).add(duration)
        remote = record.remote_wait
        if remote > self._max_remote.get(kind, 0.0):
            self._max_remote[kind] = remote
        if remote > self._max_remote.get(None, 0.0):
            self._max_remote[None] = remote
        if kind == TxnKind.READ:
            self._fold_staleness(record)

    def _fold_staleness(self, record: TxnRecord) -> None:
        # Folding eagerly is exact: if the record's version has not closed
        # by retirement time, any later close happens after the record
        # submitted, so the end-of-run staleness would be 0.0 too.
        if self._staleness is None:
            self._staleness = self._new_stats("staleness")
        if record.version is None:
            self._staleness.add(0.0)
            return
        closed = self.closed_at().get(record.version)
        if closed is None:
            self._staleness.add(0.0)
        else:
            self._staleness.add(max(0.0, record.submit_time - closed))

    def closed_at(self) -> typing.Mapping[int, float]:
        """When each version stopped accepting new update transactions.

        The incremental counterpart of ``analysis.closed_at_from_history``
        and the one closure scan of a streaming run (the rolling auditor
        settles parked reads on it).  Returns a read-only view that later
        calls keep up to date, not a copy.
        """
        # Advancements complete strictly in sequence, so scanning forward
        # from a saved index is amortized O(1) per retirement.
        advancements = self.advancements
        index = self._adv_scan
        last = len(advancements) - 1
        while index <= last:
            record = advancements[index]
            if record.phase1_done is not None:
                self._closed_at[record.new_update_version - 1] = (
                    record.phase1_done
                )
            elif index == last:
                break  # the wave in flight: its phase 1 may still finish
            # A record without phase 1 that has a successor never gets one:
            # a crashed coordinator abandoned it, or it is a resume whose
            # predecessor had already switched the update version.
            index += 1
        self._adv_scan = index
        return self._closed_view

    def _new_stats(self, name: str) -> StreamingStats:
        return StreamingStats(
            derived_rng(self._stats_seed, f"reservoir.{name}"),
            capacity=self._reservoir,
        )

    def _latency_stats(self, kind: typing.Optional[str], which: str
                       ) -> StreamingStats:
        key = (kind, which)
        stats = self._latency.get(key)
        if stats is None:
            # The RNG stream name depends only on (kind, which), so lazy
            # creation order cannot perturb reservoir draws.
            stats = self._new_stats(f"latency.{kind or 'all'}.{which}")
            self._latency[key] = stats
        return stats

    def _wait_total(self, kind: typing.Optional[str], reason: str
                    ) -> ExactSum:
        key = (kind, reason)
        total = self._waits.get(key)
        if total is None:
            total = ExactSum()
            self._waits[key] = total
        return total

    # ------------------------------------------------------------------
    # Aggregate queries (the streaming counterparts of repro.analysis)
    # ------------------------------------------------------------------

    def count(self, kind: typing.Optional[str] = None) -> int:
        if kind is None:
            return sum(self._committed.values())
        return self._committed.get(kind, 0)

    def aborted_count(self) -> int:
        return self._aborted

    def compensated_count(self) -> int:
        return self._compensated

    @property
    def total_txns(self) -> int:
        """Every transaction ever begun (retired plus still in flight)."""
        return self._retired + len(self.txns)

    @property
    def in_flight(self) -> int:
        return len(self.txns)

    def latency_stats(self, kind: typing.Optional[str] = None,
                      which: str = "local") -> LatencySummary:
        stats = self._latency.get((kind, which))
        if stats is None:
            return LatencySummary.of(())
        return stats.summary()

    def staleness_stats(self) -> LatencySummary:
        if self._staleness is None:
            return LatencySummary.of(())
        return self._staleness.summary()

    def wait_summary(self, kind: typing.Optional[str] = None
                     ) -> typing.Dict[str, float]:
        return {
            reason: total.value
            for (k, reason), total in self._waits.items()
            if k == kind
        }

    def max_remote_wait(self, kind: typing.Optional[str] = None) -> float:
        return self._max_remote.get(kind, 0.0)

    # ------------------------------------------------------------------
    # Materialized-only queries: fail loudly instead of lying
    # ------------------------------------------------------------------

    def committed_txns(self, kind: typing.Optional[str] = None
                       ) -> typing.List[TxnRecord]:
        raise RuntimeError(
            "StreamingHistory retires transaction records; use count()/"
            "latency_stats()/wait_summary() or attach a retirement sink"
        )

    def aborted_txns(self) -> typing.List[TxnRecord]:
        raise RuntimeError(
            "StreamingHistory retires transaction records; use "
            "aborted_count() or attach a retirement sink"
        )
