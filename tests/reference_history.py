"""The two histories and the post-hoc audit the one
:class:`repro.txn.History` and the one auditor replaced.

Kept verbatim, for tests only, as the reference the differential in
``tests/test_history_reference.py`` runs the new history against:

* ``History`` — retained every record; ``repro.analysis`` computed its
  latency, wait, remote-wait and staleness figures with a pass over
  ``committed_txns()`` per query (the functions below of the same names,
  with their ``history.streaming`` branches);
* ``StreamingHistory`` — folded each record into online aggregates the
  moment it completed (``_fold``, one record at a time) and retired it;
* the post-hoc audit (``audit`` and the fractured-read and snapshot
  checks it grouped, counted and listed fractured-first), which the
  rolling auditor's per-read check replaced;
* ``closed_at_from_history``, the end-of-run closure scan that
  ``StreamingHistory.closed_at()`` mirrored incrementally;
* ``ReferenceFoldHistory``, a ``StreamingHistory`` whose populations are
  built by a caller-chosen statistics class.
"""

from __future__ import annotations

import types
import typing

from repro.analysis.rolling import AnomalyReport
from repro.analysis.serializability import (
    CommittedMasks,
    Violation,
    effectively_distinct,
    snapshot_mismatches,
)
from repro.txn.history import (
    AdvancementRecord,
    ReadEvent,
    TxnKind,
    TxnRecord,
    WriteEvent,
    is_committed,
)
from repro.txn.streamstats import (
    DEFAULT_RESERVOIR,
    ExactSum,
    LatencySummary,
    StreamingStats,
    derived_rng,
)

from tests.reference_audit import corrected_entities


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


class ReferenceFoldHistory(StreamingHistory):
    """A streaming history whose populations are ``stats_type`` objects
    (an eager per-value fold, say) instead of ``StreamingStats``."""

    def __init__(self, stats_type, **kwargs):
        super().__init__(**kwargs)
        self._stats_type = stats_type

    def _new_stats(self, name):
        return self._stats_type(
            derived_rng(self._stats_seed, f"reservoir.{name}"),
            capacity=self._reservoir,
        )


# ----------------------------------------------------------------------
# The per-query metrics
# ----------------------------------------------------------------------


def latency_summary(
    history: History,
    kind: typing.Optional[str] = None,
    which: str = "local",
) -> LatencySummary:
    """Latency distribution of committed transactions.

    Args:
        kind: Restrict to one :class:`~repro.txn.history.TxnKind`.
        which: ``"local"`` (user-perceived root commit) or ``"global"``
            (whole tree completed).
    """
    if history.streaming:
        return history.latency_stats(kind, which)
    values = []
    for record in history.committed_txns(kind):
        latency = (
            record.local_latency if which == "local" else record.global_latency
        )
        if latency is not None:
            values.append(latency)
    return LatencySummary.of(values)



def wait_summary(history: History, kind: typing.Optional[str] = None
                 ) -> typing.Dict[str, float]:
    """Total wait time per :class:`~repro.txn.history.WaitReason`."""
    if history.streaming:
        return history.wait_summary(kind)
    totals: typing.Dict[str, float] = {}
    for record in history.committed_txns(kind):
        for reason, duration in record.waits.items():
            totals[reason] = totals.get(reason, 0.0) + duration
    return totals


def max_remote_wait(history: History, kind: typing.Optional[str] = None
                    ) -> float:
    """Largest remote-activity wait any committed transaction suffered —
    Theorem 4.2 says this is exactly 0 for well-behaved 3V traffic."""
    if history.streaming:
        return history.max_remote_wait(kind)
    waits = [r.remote_wait for r in history.committed_txns(kind)]
    return max(waits) if waits else 0.0


# ----------------------------------------------------------------------
# Staleness
# ----------------------------------------------------------------------


def closed_at_from_history(history: History) -> typing.Dict[int, float]:
    """When each version stopped accepting new update transactions.

    For 3V this is the end of Phase 1 of the advancement that introduced
    the next update version; version 0 never accepted updates.
    """
    closed = {0: 0.0}
    for record in history.advancements:
        if record.phase1_done is not None:
            closed[record.new_update_version - 1] = record.phase1_done
    return closed



def staleness_summary(
    history: History,
    closed_at: typing.Optional[typing.Dict[int, float]] = None,
) -> LatencySummary:
    """Data staleness of committed reads.

    The staleness of a read is the age of its snapshot when the read was
    submitted: ``submit_time - closed_at[version]``.  A system serving
    fresh data (no versioning) has staleness 0 by construction.
    """
    if history.streaming:
        # Streaming histories fold staleness at retirement (eager folding
        # is provably equal to the end-of-run computation); an explicit
        # closed_at override is a materialized-only feature.
        return history.staleness_stats()
    if closed_at is None:
        closed_at = closed_at_from_history(history)
    values = []
    for record in history.committed_txns(TxnKind.READ):
        if record.version is None:
            values.append(0.0)
            continue
        closed = closed_at.get(record.version)
        if closed is None:
            values.append(0.0)  # version still open: perfectly fresh
        else:
            values.append(max(0.0, record.submit_time - closed))
    return LatencySummary.of(values)


# ----------------------------------------------------------------------
# The post-hoc audit
# ----------------------------------------------------------------------


def _reads_by_txn_and_key(history: History) -> typing.Dict[
    str, typing.Dict[typing.Hashable, typing.List]
]:
    """Group detailed read events: txn -> key -> [events]."""
    grouped: typing.Dict[str, typing.Dict[typing.Hashable, list]] = {}
    for event in history.read_events:
        record = history.txns.get(event.txn)
        if record is None or record.aborted or record.kind != TxnKind.READ:
            continue
        grouped.setdefault(event.txn, {}).setdefault(event.key, []).append(event)
    return grouped



def _fractured(grouped) -> typing.List[Violation]:
    """Fractured reads in an already-grouped history."""
    violations = []
    for txn, by_key in grouped.items():
        for key, events in by_key.items():
            values = {(event.node, event.value) for event in events}
            distinct = effectively_distinct(
                value for _node, value in values)
            if len(distinct) > 1:
                violations.append(
                    Violation(
                        kind="fractured-read",
                        txn=txn,
                        key=key,
                        details=f"per-node values {sorted(values)!r}",
                    )
                )
    return violations


def atomic_visibility_violations(history: History) -> typing.List[Violation]:
    """Fractured reads: one read transaction, one key, different values on
    different nodes.

    Requires the history to carry detailed read events (``detail=True``).
    """
    return _fractured(_reads_by_txn_and_key(history))



def _snapshot(history: History, workload, grouped) -> typing.List[Violation]:
    """Snapshot mismatches in an already-grouped history."""
    masks = CommittedMasks.from_history(history, workload.update_amounts)
    corrected = corrected_entities(workload)
    violations: typing.List[Violation] = []
    for txn, by_key in grouped.items():
        violations.extend(
            snapshot_mismatches(masks, corrected, history.txns[txn], by_key)
        )
    return violations


def snapshot_violations(history: History, workload) -> typing.List[Violation]:
    """Theorem 4.1: reads see exactly the committed updates of versions
    ``<= V(read)``, atomically.

    Args:
        history: A detailed history.
        workload: A :class:`~repro.workloads.recording.RecordingWorkload`
            run in ``"bitmask"`` mode (so balances decompose uniquely).
    """
    return _snapshot(history, workload, _reads_by_txn_and_key(history))


def _count(grouped) -> int:
    """(read transaction, key) pairs in an already-grouped history."""
    return sum(len(by_key) for by_key in grouped.values())


def reads_checked(history: History) -> int:
    """How many (read transaction, key) pairs the oracles examined."""
    return _count(_reads_by_txn_and_key(history))


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

