"""The one :class:`repro.txn.History` against the two it replaced.

``tests/reference_history.py`` keeps the old ``History`` (every record
kept; ``repro.analysis`` computed each figure with its own pass over the
records) and ``StreamingHistory`` (each record folded, one at a time, the
moment it completed, then retired) verbatim.  Hypothesis writes lifecycle
scripts — begin, local commit, waits, abort, compensation, completion,
reads, advancement waves (some abandoned before phase 1), clock ticks —
and plays each one into the new history in both retention modes and into
the reference of the same mode.  At every query step, and at the end,
every figure must be equal: counts, every latency population, staleness,
wait totals, the largest remote wait, the closure map, and what the
retirement sinks saw.  The retiring side runs with a reservoir small
enough to hand off to P² and with folds of 1, 3 and 256 records.

Wait totals of a retaining history are now exactly rounded, as a
retiring history's always were; the reference summed them with ``+``, so
they are compared with :func:`math.fsum` of the reference's per-record
waits.  The last tests pin what a fold may cost: the counts never fold,
and a summarized run folds its retained records once.
"""

from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    latency_summary,
    max_remote_wait,
    staleness_summary,
    wait_summary,
)
from repro.exp import ExperimentSpec, run_spec
from repro.txn import history as history_module
from repro.txn.history import (
    AdvancementRecord,
    History,
    HistoryStats,
    ReadEvent,
    TxnKind,
    WaitReason,
)
from tests import reference_history as reference

KINDS = (None, TxnKind.UPDATE, TxnKind.READ, TxnKind.NONCOMMUTING)
WHICH = ("local", "global")

#: A transaction step names its target by index into the transactions
#: still in flight (modulo their number).
_TARGET = st.integers(0, 31)
_DURATION = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)

#: A transaction's version, as how far it lags the update version (0: the
#: open update version, which a later wave closes), or None.
_VERSION = st.one_of(st.none(), st.integers(0, 2))

_STEP = st.one_of(
    st.tuples(st.just("begin"), st.sampled_from(KINDS[1:]), _VERSION),
    # A whole transaction: begin, commit locally, complete.
    st.tuples(st.just("txn"), st.sampled_from(KINDS[1:]), _VERSION,
              _DURATION, _DURATION),
    st.tuples(st.just("local"), _TARGET),
    st.tuples(st.just("wait"), _TARGET,
              st.sampled_from([WaitReason.EXECUTOR, WaitReason.LOCK,
                               WaitReason.REMOTE, WaitReason.VERSION_GATE,
                               WaitReason.ADVANCEMENT]),
              _DURATION),
    st.tuples(st.just("abort"), _TARGET),
    st.tuples(st.just("compensate"), _TARGET),
    st.tuples(st.just("complete"), _TARGET),
    st.tuples(st.just("read"), _TARGET, st.integers(0, 2),
              st.integers(0, 3)),
    st.tuples(st.just("advance")),
    st.tuples(st.just("phase1")),
    st.tuples(st.just("tick"), _DURATION),
    st.tuples(st.just("query")),
)


class Script:
    """Plays one lifecycle script into four histories in lockstep."""

    def __init__(self, detail: bool, stats_seed: int, reservoir: int):
        # The scripts read and never write: ``detail`` declares reads.
        events = ("read",) if detail else ()
        self.keep = History(events=events)
        self.retire = History(events=events, retain=False,
                              stats_seed=stats_seed, reservoir=reservoir)
        self.old_keep = reference.History(detail=detail)
        self.old_retire = reference.StreamingHistory(
            detail=detail, stats_seed=stats_seed, reservoir=reservoir)
        self.histories = (self.keep, self.retire, self.old_keep,
                          self.old_retire)
        self.retired = {id(self.retire): [], id(self.old_retire): []}
        for history in (self.retire, self.old_retire):
            history.add_retire_sink(
                lambda record, events, seen=self.retired[id(history)]:
                seen.append((record.name, record.global_complete_time,
                             list(events))))
        self.now = 0.0
        self.begun = 0
        self.in_flight = []
        self.update_version = 1

    def play(self, step) -> None:
        op, *args = step
        if op == "begin":
            self.begin(*args)
        elif op == "txn":
            kind, version, local, complete = args
            self.begin(kind, version)
            for op, delay in (("local", local), ("complete", complete)):
                self.now += delay
                self.play_txn_step(op, -1)
        elif op == "tick":
            self.now += args[0]
        elif op == "advance":
            # A wave whose predecessor never finished phase 1 is a resume
            # or a successor that abandons it: same target version.
            record = AdvancementRecord(
                new_update_version=self.update_version + 1,
                started=self.now)
            for history in self.histories:
                history.advancements.append(record)
        elif op == "phase1":
            # Only the wave in flight can finish phase 1.
            advancements = self.keep.advancements
            if advancements and advancements[-1].phase1_done is None:
                advancements[-1].phase1_done = self.now
                self.update_version = advancements[-1].new_update_version
        elif op == "query":
            self.check()
        elif self.in_flight:
            self.play_txn_step(op, *args)

    def begin(self, kind, lag) -> None:
        version = None if lag is None else max(0, self.update_version - lag)
        name = f"t{self.begun}"
        self.begun += 1
        self.in_flight.append(name)
        for history in self.histories:
            history.begin_txn(name, kind, version, self.now, "n0")

    def play_txn_step(self, op, target, *args) -> None:
        name = self.in_flight[target % len(self.in_flight)]
        for history in self.histories:
            if op == "local":
                history.locally_committed(name, self.now)
            elif op == "wait":
                reason, duration = args
                history.waited(name, reason, duration)
            elif op == "abort":
                history.aborted(name, self.now, "scripted")
            elif op == "compensate":
                history.compensated(name)
            elif op == "complete":
                history.globally_completed(name, self.now)
            elif op == "read":
                node, value = args
                fields = dict(
                    time=self.now, txn=name, subtxn=name, node=f"n{node}",
                    key="bal:1", version_requested=None, version_used=None,
                    value=value)
                if isinstance(history, History):
                    history.read(**fields)
                else:
                    history.read(ReadEvent(**fields))
        if op == "complete":
            self.in_flight.remove(name)

    def check(self) -> None:
        self.check_keep()
        self.check_retire()

    def check_counts(self, new, old) -> None:
        for kind in KINDS:
            assert new.count(kind) == old.count(kind), kind
        assert new.aborted_count() == old.aborted_count()
        assert new.compensated_count() == old.compensated_count()
        assert new.total_txns == old.total_txns
        assert new.closed_at() == reference.closed_at_from_history(old)
        assert list(new.txns) == list(old.txns)

    def check_keep(self) -> None:
        new, old = self.keep, self.old_keep
        self.check_counts(new, old)
        assert new.read_events == old.read_events
        fold = new.stats()
        for kind in KINDS:
            for which in WHICH:
                expected = reference.latency_summary(old, kind, which)
                assert fold.latency(kind, which) == expected, (kind, which)
                assert latency_summary(new, kind, which) == expected
            waits = {}
            for record in old.committed_txns(kind):
                for reason, duration in record.waits.items():
                    waits.setdefault(reason, []).append(duration)
            expected_waits = {reason: math.fsum(durations)
                              for reason, durations in waits.items()}
            assert fold.waits(kind) == expected_waits, kind
            assert wait_summary(new, kind) == expected_waits
            expected_remote = reference.max_remote_wait(old, kind)
            assert fold.max_remote_wait(kind) == expected_remote
            assert max_remote_wait(new, kind) == expected_remote
        expected = reference.staleness_summary(old)
        assert fold.staleness() == expected
        assert staleness_summary(new) == expected
        assert fold.records == len(old.txns)
        assert fold.count() == old.count()

    def check_retire(self) -> None:
        new, old = self.retire, self.old_retire
        self.check_counts(new, old)
        assert self.retired[id(new)] == self.retired[id(old)]
        fold = new.stats()
        for kind in KINDS:
            for which in WHICH:
                assert fold.latency(kind, which) == old.latency_stats(
                    kind, which), (kind, which)
            assert fold.waits(kind) == old.wait_summary(kind)
            assert fold.max_remote_wait(kind) == old.max_remote_wait(kind)
        assert fold.staleness() == old.staleness_stats()
        assert staleness_summary(new) == old.staleness_stats()


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_STEP, min_size=40, max_size=200),
       detail=st.booleans(),
       stats_seed=st.integers(0, 2 ** 16),
       reservoir=st.integers(1, 12),
       batch=st.sampled_from([1, 3, 256]))
def test_both_retention_modes_equal_the_reference(steps, detail, stats_seed,
                                                  reservoir, batch):
    with mock.patch.object(history_module, "FOLD_BATCH", batch):
        script = Script(detail, stats_seed, reservoir)
        for step in steps:
            script.play(step)
        script.check()


def test_scripts_reach_what_they_are_for():
    """One hand-written script that reaches the cases the strategy is
    for: a P² hand-off, a fold between queries, an abandoned wave, an
    uncompleted record, and a read dated against a closed version."""
    steps = [("advance",), ("tick", 1.0), ("phase1",), ("advance",),
             ("advance",), ("tick", 2.0), ("phase1",)]
    for index in range(20):
        steps += [("begin", TxnKind.READ, 2), ("tick", 0.5 + index % 3),
                  ("local", index), ("wait", index, WaitReason.LOCK, 0.1),
                  ("complete", index)]
        if index == 7:
            steps.append(("query",))
    steps.append(("begin", TxnKind.UPDATE, 0))
    with mock.patch.object(history_module, "FOLD_BATCH", 3):
        script = Script(detail=True, stats_seed=5, reservoir=4)
        for step in steps:
            script.play(step)
        script.check()
    fold = script.retire.stats()
    assert fold.latency(TxnKind.READ).count == 20 > 4
    assert fold.staleness().max > 0.0
    assert [record.phase1_done for record in script.keep.advancements] == [
        1.0, None, 3.0]
    assert script.keep.total_txns == 21 == script.keep.stats().records


# ----------------------------------------------------------------------
# What a fold costs
# ----------------------------------------------------------------------


def _no_fold(*args, **kwargs):
    raise AssertionError("a count folded the records")


@pytest.mark.parametrize("retain", [True, False])
def test_counts_build_no_population(monkeypatch, retain):
    """Policies poll ``count()`` during the run and every audit reads the
    abort counts: none of them may fold."""
    script = Script(detail=False, stats_seed=0, reservoir=4)
    for index in range(5):
        script.play(("txn", TxnKind.UPDATE, 0, 0.5, 1.0))
    script.play(("begin", TxnKind.READ, 0))
    script.play(("abort", 0))
    script.play(("complete", 0))
    script.play(("begin", TxnKind.UPDATE, 0))
    history = script.keep if retain else script.retire
    monkeypatch.setattr(HistoryStats, "fold", _no_fold)
    assert (history.aborted_count(), history.compensated_count(),
            history.total_txns) == (1, 0, 7)
    # The update still in flight has not aborted, so a retaining history
    # counts it as committed; a retiring one counts what has retired.
    updates = 6 if retain else 5
    assert [history.count(kind) for kind in KINDS] == [updates, updates, 0, 0]


def test_a_summarized_run_folds_once(monkeypatch):
    """``run_spec`` audits and summarizes a retaining history from one
    fold of its records."""
    folds = []
    fold = HistoryStats.fold
    monkeypatch.setattr(
        HistoryStats, "fold",
        lambda self, records, closed_at: folds.append(len(records))
        or fold(self, records, closed_at))
    summary = run_spec(ExperimentSpec(
        "3v", nodes=3, duration=20.0, entities=10, detail=True,
        amount_mode="bitmask"))
    assert summary.audit_clean and summary.reads_checked > 0
    assert folds == [summary.txn_count]
