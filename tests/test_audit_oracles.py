"""The audit's committed-update index against its reference oracle.

Until PR 15 the Theorem 4.1 check asked
``RecordingWorkload.committed_mask`` for every (read, key) pair, and that
method re-scanned every update the run had generated: O(reads × updates).
The audit now builds :class:`repro.analysis.CommittedMasks` once and
queries it per read.  The old loop lives on here, verbatim, as
:func:`reference_committed_mask` — the definition the index is checked
against — together with the guards that keep the rewrite honest:

* the index equals the reference on random and on real histories;
* the streaming and post-hoc auditors agree count for count, and with
  the post-hoc audit they replaced (``tests/reference_history.py``), on
  a clean run and on a run the dual-write ablation has damaged;
* a rolling auditor that drops reads unchecked says so and is not clean;
* audit work is linear in the number of updates (a lookup count, not a
  timing, so it cannot flap on a noisy host).
"""

import functools
import types
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    CommittedMasks,
    audit,
    audit_verdict,
    staleness_summary,
)
from repro.analysis import rolling
from repro.analysis.serializability import (
    balance_entity,
    snapshot_mismatches,
)
from repro.exp import ExperimentSpec, audit_result
from repro.runtime.config import NodeConfig
from repro.txn import History, TxnKind
from repro.workloads import runner
from repro.workloads.runner import run_recording_experiment
from tests import reference_history as reference
from tests.reference_audit import ReferenceMasks


def reference_committed_mask(update_amounts, history, entity: int,
                             max_version: typing.Optional[int] = None) -> int:
    """Bitmask of committed recording transactions on ``entity``
    (optionally only those with version <= ``max_version``).

    The body of the removed ``RecordingWorkload.committed_mask``, with
    ``self.update_amounts`` passed in.
    """
    mask = 0
    for name, (ent, amount) in update_amounts.items():
        if ent != entity:
            continue
        record = history.txns.get(name)
        if record is None or record.aborted:
            continue
        if max_version is not None and (
            record.version is None or record.version > max_version
        ):
            continue
        mask |= amount
    return mask


# ----------------------------------------------------------------------
# Index == reference
# ----------------------------------------------------------------------

#: One generated update: (entity, amount bit, version, fate).  Bits are
#: drawn independently of the entity's other updates, so they overlap.
_UPDATES = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 5),
        st.one_of(st.none(), st.integers(1, 6)),
        st.sampled_from(["committed", "aborted", "unrecorded"]),
    ),
    max_size=24,
)


@settings(max_examples=200, deadline=None)
@given(_UPDATES)
def test_index_equals_reference_loop(updates):
    history = History()
    update_amounts = {}
    for index, (entity, bit, version, fate) in enumerate(updates):
        name = f"rec-{index}"
        update_amounts[name] = (entity, 1 << bit)
        if fate == "unrecorded":
            continue
        history.begin_txn(name, TxnKind.UPDATE, version, 0.0, "n0")
        if fate == "aborted":
            history.aborted(name, 1.0)
    masks = CommittedMasks.from_history(history, update_amounts)
    # None, below all, every value in between, above all — for every
    # entity, including one no update touched.
    for entity in range(5):
        for max_version in (None, 0, 1, 2, 3, 4, 5, 6, 7):
            assert masks.upto(entity, max_version) == reference_committed_mask(
                update_amounts, history, entity, max_version)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(0, 2), st.integers(0, 7),
              st.one_of(st.none(), st.integers(1, 6))),
    st.tuples(st.just("upto"), st.integers(0, 3),
              st.one_of(st.none(), st.integers(0, 7))),
), max_size=40))
def test_interleaved_adds_and_queries_equal_the_reference(steps):
    # The rolling auditor adds updates as they retire, in any version
    # order, between queries: each query must see every add before it.
    masks, old = CommittedMasks(), ReferenceMasks()
    for step in steps:
        if step[0] == "add":
            _, entity, bit, version = step
            masks.add(entity, version, 1 << bit)
            old.add(entity, version, 1 << bit)
        else:
            _, entity, version = step
            assert masks.upto(entity, version) == old.upto(entity, version)


def test_balance_entity_parses_plain_and_slot_qualified_keys():
    assert balance_entity("bal:38") == 38
    assert balance_entity("bal:38#1") == 38
    assert balance_entity("log:38") is None
    assert balance_entity(("tuple", "key")) is None


def test_a_float_read_is_one_snapshot_mismatch_naming_its_value():
    """A float balance on an entity not counted as corrected has no bits:
    the check names the value instead of taking masks of it (which
    raised ``TypeError`` on ``~``), and an int read still gets its
    masks."""
    masks = CommittedMasks()
    masks.add(3, 1, 4)
    record = types.SimpleNamespace(name="inq", version=1)
    by_key = {"bal:3": [types.SimpleNamespace(node="n0", value=12.5)],
              "bal:3#1": [types.SimpleNamespace(node="n1", value=6)]}
    violations = list(snapshot_mismatches(masks, frozenset(), record, by_key))
    assert [(v.kind, v.txn, v.key) for v in violations] == [
        ("snapshot-mismatch", "inq", "bal:3"),
        ("snapshot-mismatch", "inq", "bal:3#1")]
    assert violations[0].details == (
        "node n0: version 1, value 12.5 is not a mask, expected mask 0x4")
    assert violations[1].details == (
        "node n1: version 1, missing mask 0x0, extra mask 0x2")
    # An equal float is no mismatch, as before.
    by_key = {"bal:3": [types.SimpleNamespace(node="n0", value=4.0)]}
    assert not list(snapshot_mismatches(masks, frozenset(), record, by_key))


# ----------------------------------------------------------------------
# Rolling == post-hoc, and both == the reference, on real runs
# ----------------------------------------------------------------------

#: Fast advancement over few entities: stragglers (updates that reach a
#: node after it moved to the next version) are common, which is what the
#: dual-write ablation needs in order to show.
_SPEC = ExperimentSpec(
    "3v", nodes=4, duration=120.0, update_rate=6.0, inquiry_rate=5.0,
    audit_rate=0.5, entities=8, span=3, seed=7, advancement_period=2.0,
    poll_interval=0.25, detail=True, amount_mode="bitmask", stream=1,
)


def _streamed_and_materialized(monkeypatch, dual_write: bool):
    """The spec audited by the rolling auditor and, over the same lazy
    trace retained, by the post-hoc audit — which counts exactly what the
    post-hoc audit it replaced counts."""
    monkeypatch.setattr(
        runner, "NodeConfig",
        functools.partial(NodeConfig, dual_write=dual_write))
    kwargs = _SPEC.run_kwargs()
    streamed = run_recording_experiment(_SPEC.protocol, **kwargs)
    materialized = run_recording_experiment(
        _SPEC.protocol, **kwargs, stream_aggregates=False)
    assert streamed.auditor is not None and materialized.auditor is None
    post_hoc = audit_result(materialized)
    old = reference.audit(materialized.history, materialized.workload,
                          check_snapshots=True)
    assert _counts(post_hoc) == _counts(old)
    # The same violations, interleaved per read instead of listed
    # fractured-first, and only the first MAX_EVIDENCE of them.
    assert set(post_hoc.violations) <= set(old.violations)
    assert len(post_hoc.violations) == min(len(old.violations),
                                           rolling.MAX_EVIDENCE)
    return audit_result(streamed), post_hoc, materialized


def _counts(report):
    return (report.reads_checked, report.fractured_reads,
            report.snapshot_mismatches, report.reads_skipped)


def test_rolling_equals_post_hoc_on_a_clean_run(monkeypatch):
    rolled, post_hoc, _result = _streamed_and_materialized(
        monkeypatch, dual_write=True)
    assert _counts(rolled) == _counts(post_hoc)
    assert rolled.reads_checked > 0
    assert rolled.clean and post_hoc.clean


def test_rolling_equals_post_hoc_on_a_dirty_run(monkeypatch):
    rolled, post_hoc, result = _streamed_and_materialized(
        monkeypatch, dual_write=False)
    assert _counts(rolled) == _counts(post_hoc)
    assert post_hoc.snapshot_mismatches > 0
    assert not rolled.clean and not post_hoc.clean
    # Both keep the first MAX_EVIDENCE violations they find, in the order
    # they check reads: the rolling auditor by retirement.
    found = rolled.fractured_reads + rolled.snapshot_mismatches
    assert found > rolling.MAX_EVIDENCE == len(rolled.violations)
    assert set(rolled.violations) <= set(reference.audit(
        result.history, result.workload, check_snapshots=True).violations)
    assert audit_verdict(rolled).startswith(
        f"AUDIT FAILED: {found} violations, e.g. {rolled.violations[0]}")
    # The same damaged history, index against reference, for every
    # version a read was served at.
    history, amounts = result.history, result.workload.update_amounts
    masks = CommittedMasks.from_history(history, amounts)
    versions = {record.version for record in history.txns.values()
                if record.kind == TxnKind.READ}
    for entity in range(_SPEC.entities):
        for version in versions:
            assert masks.upto(entity, version) == reference_committed_mask(
                amounts, history, entity, version)


# ----------------------------------------------------------------------
# A dropped read is reported
# ----------------------------------------------------------------------

def test_overflowing_window_is_reported_and_not_clean(monkeypatch):
    # A read parks while its version is unsettled.  A 3V run settles
    # every read at retirement — also past a coordinator crash, whose
    # abandoned advancement record the closure scan used to stop at (next
    # test) — so the window that overflows here is one with no room to
    # park at all.
    monkeypatch.setattr(
        rolling, "RollingAuditor",
        functools.partial(rolling.RollingAuditor, window=0))
    result = run_recording_experiment(_SPEC.protocol, **_SPEC.run_kwargs())
    report = audit_result(result)
    assert report.reads_skipped > 0
    assert report.fractured_reads == 0 and report.snapshot_mismatches == 0
    assert not report.clean
    assert f"{report.reads_skipped} reads dropped unchecked" in (
        audit_verdict(report))


def test_closure_scan_passes_an_abandoned_advancement_record():
    # The wave a crashed coordinator abandons keeps phase1_done=None for
    # good.  The streaming closure scan used to stop there: every later
    # read folded staleness 0.0 and parked in the auditor until report().
    kwargs = dict(
        nodes=4, duration=200.0, seed=5, update_rate=6.0, inquiry_rate=6.0,
        audit_rate=0.5, entities=30, amount_mode="bitmask",
        coordinator_crashes=1, stream=1, detail=True)
    streamed = run_recording_experiment("3v", **kwargs)
    materialized = run_recording_experiment(
        "3v", **kwargs, stream_aggregates=False)
    abandoned = [record for record in materialized.history.advancements
                 if record.phase1_done is None]
    assert abandoned and abandoned[0] is not (
        materialized.history.advancements[-1])
    closed = streamed.history.closed_at()
    assert closed == reference.closed_at_from_history(materialized.history)
    assert closed == materialized.history.closed_at()
    with pytest.raises(TypeError):
        closed[0] = 1.0  # a view: the caller cannot edit the bookkeeping
    assert staleness_summary(streamed.history) == staleness_summary(
        materialized.history)
    # Every retired read was checked as it settled, before report(): the
    # run has drained, so no in-flight tail is left parked either.
    assert not streamed.auditor._pending
    report = streamed.auditor.report()
    assert report.reads_skipped == 0 and report.clean
    assert report.reads_checked > 2000


# ----------------------------------------------------------------------
# Audit work is linear in the updates
# ----------------------------------------------------------------------

class _CountingTxns(dict):
    """``history.txns`` that counts record lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


_ENTITIES = 4
_READS = 50


def _audit_lookups(updates: int):
    """Audit ``_READS`` fixed inquiries (one per version, every entity,
    two nodes each) against ``updates`` committed updates."""
    history = History()
    # Stand-in workload: just the ground-truth bookkeeping.
    workload = types.SimpleNamespace(update_amounts={}, correction_entities={})
    per_entity = updates // _ENTITIES
    for index in range(updates):
        entity, k = index % _ENTITIES, index // _ENTITIES
        name = f"rec-{index}"
        # Versions 1.._READS, spread evenly over each entity's updates.
        history.begin_txn(name, TxnKind.UPDATE, 1 + k * _READS // per_entity,
                          0.0, "n0")
        workload.update_amounts[name] = (entity, 1 << k)
    for version in range(1, _READS + 1):
        name = f"inq-{version}"
        history.begin_txn(name, TxnKind.READ, version, 0.0, "n0")
        for entity in range(_ENTITIES):
            expected = reference_committed_mask(
                workload.update_amounts, history, entity, version)
            for node in ("n0", "n1"):
                history.read(
                    time=0.0, txn=name, subtxn=name, node=node,
                    key=f"bal:{entity}", version_requested=version,
                    version_used=version, value=expected)
    history.txns = _CountingTxns(history.txns)
    report = audit(history, workload, check_snapshots=True)
    assert report.clean and report.reads_checked == _READS * _ENTITIES
    return history.txns.lookups, report.reads_checked


def test_audit_lookups_are_linear_in_updates():
    # The index looks each update's record up once; the reads are walked
    # in the records, not looked up (the per-read check before one-pass
    # auditing looked up a record per read event: three per (read, key)
    # pair here).
    for updates in (400, 1600):
        lookups, _reads = _audit_lookups(updates)
        assert lookups <= updates, (updates, lookups)
