"""Execution history recording.

Every protocol implementation writes what it does into a :class:`History`:
per-transaction lifecycle records, the per-operation read/write events of
the kinds the history declares, wait events, and version-advancement
phase timestamps.  The analysis package (:mod:`repro.analysis`) consumes
these to check serializability, detect fractured reads, and compute
latency/staleness/throughput — so the checkers work identically across
3V and all baselines.

A history either retains every record (memory O(transactions); the
full post-hoc toolbox applies) or *retires* each one when its transaction
completes (memory O(in-flight transactions), which an open-loop workload
bounds by rate × latency — the volume axis).  Either way the aggregate
figures come from one fold, :class:`HistoryStats`.
"""

from __future__ import annotations

import dataclasses
import sys
import types
import typing

from repro.txn.streamstats import (
    DEFAULT_RESERVOIR,
    FOLD_BATCH,
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
    #: Values returned by read operations, in execution order: a list on
    #: a history that keeps read events, else the empty tuple.
    reads: typing.Sequence[typing.Tuple[typing.Hashable, typing.Any]] = (
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


@dataclasses.dataclass(slots=True)
class ReadEvent:
    """One read operation (kept by a history that declares ``"read"``)."""

    time: float
    txn: str
    subtxn: str
    node: str
    key: typing.Hashable
    version_requested: typing.Optional[int]
    version_used: typing.Optional[int]
    value: typing.Any


@dataclasses.dataclass(slots=True)
class WriteEvent:
    """One write operation (kept by a history that declares ``"write"``)."""

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


def is_committed(record: TxnRecord,
                 kind: typing.Optional[str] = None) -> bool:
    """The one committed-transaction predicate."""
    return not record.aborted and (kind is None or record.kind == kind)


#: A reservoir no population outgrows: a fold of retained records keeps
#: every value, so its percentiles are exact.
UNBOUNDED = sys.maxsize


class HistoryStats:
    """Tallies and populations folded from transaction records: the one
    place a run's latency, wait, remote-wait and staleness figures are
    computed, per transaction kind (``None``: every kind).

    :meth:`fold` extends each population with one list comprehension over
    a batch of records, so every population receives its values in the
    order the records were folded.

    Args:
        stats_seed: Seed of the reservoir-sampling RNG streams.
        reservoir: Per-population reservoir capacity (:data:`UNBOUNDED`
            keeps every value).
    """

    def __init__(self, stats_seed: int = 0,
                 reservoir: int = DEFAULT_RESERVOIR):
        self._stats_seed = stats_seed
        self._reservoir = reservoir
        #: Records folded, and how many of them aborted / were compensated.
        self.records = 0
        self.aborted = 0
        self.compensated = 0
        self._committed: typing.Dict[typing.Optional[str], int] = {}
        #: (kind, "local" / "global" / "staleness") -> population.
        self._populations: typing.Dict[tuple, StreamingStats] = {}
        #: (kind, wait reason) -> exactly rounded total.
        self._waits: typing.Dict[tuple, ExactSum] = {}
        self._max_remote: typing.Dict[typing.Optional[str], float] = {}

    def fold(self, records: typing.Collection[TxnRecord],
             closed_at: typing.Mapping[int, float]) -> None:
        """Fold ``records`` in order; ``closed_at`` dates read staleness."""
        self.records += len(records)
        self.aborted += sum([record.aborted for record in records])
        self.compensated += sum([record.compensated for record in records])
        committed = [record for record in records if not record.aborted]
        groups: typing.Dict[typing.Optional[str], typing.List[TxnRecord]] = {
            None: committed,
        }
        for kind in dict.fromkeys([record.kind for record in committed]):
            groups[kind] = [r for r in committed if r.kind == kind]
        for kind, group in groups.items():
            self._committed[kind] = self._committed.get(kind, 0) + len(group)
            self._extend(kind, "local", [
                r.local_commit_time - r.submit_time
                for r in group if r.local_commit_time is not None])
            self._extend(kind, "global", [
                r.global_complete_time - r.submit_time
                for r in group if r.global_complete_time is not None])
            for reason in dict.fromkeys(
                    [reason for r in group for reason in r.waits]):
                total = self._waits.get((kind, reason))
                if total is None:
                    total = self._waits[(kind, reason)] = ExactSum()
                total.extend([r.waits[reason] for r in group
                              if reason in r.waits])
            remote = max([r.remote_wait for r in group if r.waits],
                         default=0.0)
            if remote > self._max_remote.get(kind, 0.0):
                self._max_remote[kind] = remote
        # A version still open when its read is folded closes after the
        # read was submitted, so folding before the end of the run dates
        # the read exactly as the end of the run would: 0.0.
        # (``x if x > 0.0 else 0.0`` is ``max(0.0, x)``, with no call.)
        self._extend(TxnKind.READ, "staleness", [
            0.0 if r.version not in closed_at
            else (age if (age := r.submit_time - closed_at[r.version]) > 0.0
                  else 0.0)
            for r in groups.get(TxnKind.READ, ())])

    def _extend(self, kind: typing.Optional[str], which: str,
                values: typing.List[float]) -> None:
        if not values:
            return
        stats = self._populations.get((kind, which))
        if stats is None:
            # The RNG stream is named, so the order populations are
            # created in cannot perturb reservoir draws.
            name = ("staleness" if which == "staleness"
                    else f"latency.{kind or 'all'}.{which}")
            stats = self._populations[(kind, which)] = StreamingStats(
                derived_rng(self._stats_seed, f"reservoir.{name}"),
                capacity=self._reservoir)
        stats.extend(values)

    def _summary(self, kind: typing.Optional[str], which: str
                 ) -> LatencySummary:
        stats = self._populations.get((kind, which))
        return stats.summary() if stats is not None else LatencySummary.of(())

    def count(self, kind: typing.Optional[str] = None) -> int:
        """Committed records folded, optionally by kind."""
        return self._committed.get(kind, 0)

    def latency(self, kind: typing.Optional[str] = None,
                which: str = "local") -> LatencySummary:
        """Latency of committed transactions, optionally by kind.

        Args:
            which: ``"local"`` (user-perceived root commit) or
                ``"global"`` (whole tree completed).
        """
        if which not in ("local", "global"):
            raise ValueError(
                f"latency is 'local' or 'global', not {which!r}")
        return self._summary(kind, which)

    def staleness(self) -> LatencySummary:
        """Staleness of committed reads: ``submit_time - closed_at[version]``,
        0.0 for an unversioned read or a version still open."""
        return self._summary(TxnKind.READ, "staleness")

    def waits(self, kind: typing.Optional[str] = None
              ) -> typing.Dict[str, float]:
        """Total wait time per :class:`WaitReason`, exactly rounded."""
        return {
            reason: total.value
            for (k, reason), total in self._waits.items()
            if k == kind
        }

    def max_remote_wait(self, kind: typing.Optional[str] = None) -> float:
        """Largest remote-activity wait any committed transaction suffered."""
        return self._max_remote.get(kind, 0.0)


#: Signature of a retirement sink: called once per transaction, at global
#: completion, with the (about-to-be-discarded) record and its read events
#: (empty tuple when the history keeps no reads).
RetireSink = typing.Callable[
    [TxnRecord, typing.Sequence[ReadEvent]], None
]

#: The per-operation event kinds a history can keep.
EVENT_KINDS = ("read", "write")


class History:
    """Record of everything a simulation did: the recording surface
    (``begin_txn`` … ``wrote``) every protocol writes to.

    ``globally_completed`` is called exactly once per transaction, by both
    the plain runtime and the two-phase engine.  A retiring history pops
    the record there from ``txns`` (which then holds only transactions in
    flight), hands it and its read events to the retirement sinks (rolling
    audit, JSONL spill), and folds it into its running
    :class:`HistoryStats` with the rest of its batch: every
    :data:`~repro.txn.streamstats.FOLD_BATCH` retirements, and on any
    aggregate query.  ``committed_txns`` / ``aborted_txns`` raise there.

    Args:
        events: The per-operation event kinds to keep, a subset of
            :data:`EVENT_KINDS`.  Whoever builds the history declares
            what its readers need; the default keeps both.  A retiring
            history keeps a transaction's read events until it retires,
            and refuses ``"write"``: it has nowhere to keep them.
            ``"write"`` needs ``"read"`` (a write's readers, the trace
            export and the conflict graph, read both).
        retain: Keep every record (``True``) or retire it at completion.
        stats_seed: Seed for a retiring history's reservoir-sampling RNG
            streams (derive it from the experiment seed so summaries are
            bit-deterministic across hosts and worker counts).
        reservoir: A retiring history's per-population reservoir
            capacity; runs whose populations fit are summarized exactly.
    """

    def __init__(self, events: typing.Iterable[str] = EVENT_KINDS,
                 retain: bool = True, stats_seed: int = 0,
                 reservoir: int = DEFAULT_RESERVOIR):
        events = frozenset(events)
        unknown = events.difference(EVENT_KINDS)
        if unknown:
            raise ValueError(
                f"unknown event kind(s) {sorted(unknown)}; "
                f"choose from {EVENT_KINDS}")
        if "write" in events and not retain:
            raise ValueError(
                "a retiring history keeps no write events; "
                "declare events=('read',) or ()")
        if "write" in events and "read" not in events:
            raise ValueError(
                "a history that keeps write events keeps read events "
                "too; declare events=('read', 'write')")
        self.retain = retain
        #: Whether :meth:`read` builds a :class:`ReadEvent`, and whether
        #: an executor calls :meth:`wrote` at all (it asks first).
        self.keeps_reads = "read" in events
        self.keeps_writes = "write" in events
        #: Every transaction begun, or (retiring) those still in flight.
        self.txns: typing.Dict[str, TxnRecord] = {}
        self.read_events: typing.List[ReadEvent] = []
        self.write_events: typing.List[WriteEvent] = []
        self.advancements: typing.List[AdvancementRecord] = []
        #: Wait-free check support: count of wait episodes per reason.
        self.wait_episodes: typing.Dict[str, int] = {}
        #: The retired records' running fold (empty while retaining).
        self._stats = HistoryStats(stats_seed, reservoir)
        #: Retired records the running fold has not taken yet.
        self._retired: typing.List[TxnRecord] = []
        self._sinks: typing.List[RetireSink] = []
        self._pending_events: typing.Dict[str, typing.List[ReadEvent]] = {}
        self._closed_at: typing.Dict[int, float] = {0: 0.0}
        self._closed_view = types.MappingProxyType(self._closed_at)
        self._adv_scan = 0
        #: A retiring history's in-flight transactions that are not reads,
        #: by version (what :meth:`update_in_flight` reads).
        self._versions_in_flight: typing.Dict[int, int] = {}

    def add_retire_sink(self, sink: RetireSink) -> None:
        """Attach a callback invoked for every retiring transaction."""
        self._sinks.append(sink)

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def begin_txn(self, name: str, kind: str, version: typing.Optional[int],
                  time: float, root_node: str) -> TxnRecord:
        if name in self.txns:
            raise ValueError(f"duplicate transaction name: {name!r}")
        record = TxnRecord(
            name=name, kind=kind, version=version, submit_time=time,
            root_node=root_node, reads=[] if self.keeps_reads else (),
        )
        self.txns[name] = record
        if not self.retain and kind != TxnKind.READ and version is not None:
            try:
                self._versions_in_flight[version] += 1
            except KeyError:
                self._versions_in_flight[version] = 1
        return record

    def txn(self, name: str) -> TxnRecord:
        return self.txns[name]

    def locally_committed(self, name: str, time: float) -> None:
        record = self.txns[name]
        if record.local_commit_time is None:
            record.local_commit_time = time

    def globally_completed(self, name: str, time: float) -> None:
        if self.retain:
            self.txns[name].global_complete_time = time
            return
        record = self.txns.pop(name)
        record.global_complete_time = time
        version = record.version
        if record.kind != TxnKind.READ and version is not None:
            in_flight = self._versions_in_flight
            if in_flight[version] == 1:
                del in_flight[version]
            else:
                in_flight[version] -= 1
        events = self._pending_events.pop(name, ())
        for sink in self._sinks:
            sink(record, events)
        retired = self._retired
        retired.append(record)
        if len(retired) >= FOLD_BATCH:
            self._flush()

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

    def read(self, time: float, txn: str, subtxn: str, node: str,
             key: typing.Hashable, version_requested: typing.Optional[int],
             version_used: typing.Optional[int], value: typing.Any) -> None:
        """Record one read, if the history keeps reads: its ``(key,
        value)`` on the transaction's record and a :class:`ReadEvent` (the
        only use of ``version_used``).  A history that keeps no reads
        records nothing, and its records hold the empty tuple."""
        if not self.keeps_reads:
            return
        record = self.txns.get(txn)
        if record is not None:
            record.reads.append((key, value))
        event = ReadEvent(time, txn, subtxn, node, key, version_requested,
                          version_used, value)
        if self.retain:
            self.read_events.append(event)
        elif record is not None:
            self._pending_events.setdefault(txn, []).append(event)

    def wrote(self, time: float, txn: str, subtxn: str, node: str,
              key: typing.Hashable, version: typing.Optional[int],
              versions_written: int, operation: typing.Any,
              compensating: bool = False,
              versions: typing.Optional[typing.Tuple[int, ...]] = None
              ) -> None:
        """Keep one :class:`WriteEvent`.  Call it only when
        ``keeps_writes`` is set: the write path asks that plain attribute
        first, so a run that keeps no writes pays no call."""
        self.write_events.append(WriteEvent(
            time, txn, subtxn, node, key, version, versions_written,
            operation, compensating, versions))

    # ------------------------------------------------------------------
    # Advancement closure
    # ------------------------------------------------------------------

    def closed_at(self) -> typing.Mapping[int, float]:
        """When each version stopped accepting new update transactions.

        For 3V this is the end of Phase 1 of the advancement that
        introduced the next update version; version 0 never accepted
        updates.  The one closure scan: staleness is dated against it and
        the rolling auditor settles parked reads on it.  Returns a
        read-only view that later calls keep up to date, not a copy.
        """
        # Advancements complete strictly in sequence, so scanning forward
        # from a saved index is amortized O(1) per call.
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

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def stats(self, closed_at: typing.Optional[
            typing.Mapping[int, float]] = None) -> HistoryStats:
        """The fold every latency, wait and staleness figure is read from.

        A retiring history returns its running fold, brought up to date.
        A retaining one folds every record it holds — including ones that
        never completed — into a new fold with an :data:`UNBOUNDED`
        reservoir (exact percentiles); that is a pass over the run, so
        fold once per finished run and read every figure from the result.

        Args:
            closed_at: Date read staleness against this map instead of
                :meth:`closed_at` (a retaining history only: a retiring
                one dated each read when it folded it).
        """
        if self.retain:
            stats = HistoryStats(reservoir=UNBOUNDED)
            stats.fold(self.txns.values(),
                       self.closed_at() if closed_at is None else closed_at)
            return stats
        if closed_at is not None:
            raise ValueError(
                "a retiring history dates staleness as it folds; "
                "closed_at cannot be overridden")
        self._flush()
        return self._stats

    def _flush(self) -> None:
        self._stats.fold(self._retired, self.closed_at())
        self._retired.clear()

    def _unfolded(self) -> typing.Collection[TxnRecord]:
        """Records the running fold has not taken: every retained one, or
        the retired batch still waiting."""
        return self.txns.values() if self.retain else self._retired

    def _records(self) -> typing.Collection[TxnRecord]:
        if not self.retain:
            raise RuntimeError(
                "a retiring history keeps no records; use count()/stats() "
                "or attach a retirement sink"
            )
        return self.txns.values()

    def committed_txns(self, kind: typing.Optional[str] = None
                       ) -> typing.List[TxnRecord]:
        """Transactions that finished without aborting, optionally by kind."""
        return [
            record for record in self._records() if is_committed(record, kind)
        ]

    def aborted_txns(self) -> typing.List[TxnRecord]:
        return [record for record in self._records() if record.aborted]

    # The counts stay cheap in both modes — a scan of the unfolded records,
    # never a fold — because policies poll them during the run.  A finished
    # run reads them from its one fold instead (``summarize``).

    def count(self, kind: typing.Optional[str] = None) -> int:
        """Committed transactions, optionally by kind (allocation-free)."""
        return self._stats.count(kind) + sum(
            1 for record in self._unfolded() if is_committed(record, kind)
        )

    def aborted_count(self) -> int:
        return self._stats.aborted + sum(
            1 for record in self._unfolded() if record.aborted)

    def compensated_count(self) -> int:
        return self._stats.compensated + sum(
            1 for record in self._unfolded() if record.compensated)

    def update_in_flight(self, version: int) -> bool:
        """Whether a transaction still in flight that is not a read
        carries a version ``<= version``: one comparison per distinct
        version in flight, a handful however many transactions are, on
        a retiring history.  A retaining one retires nothing, so every
        record it holds counts, and finding one is a scan."""
        if self.retain:
            return any(
                record.kind != TxnKind.READ and record.version is not None
                and record.version <= version
                for record in self.txns.values())
        for in_flight in self._versions_in_flight:
            if in_flight <= version:
                return True
        return False

    @property
    def total_txns(self) -> int:
        """Every transaction ever begun (committed or aborted, retired or
        still in flight)."""
        return self._stats.records + len(self._retired) + len(self.txns)
