"""The one-pass audit against the per-read check it replaced.

``tests/reference_audit.py`` keeps the old check verbatim: every read's
events grouped by key, every key parsed, a set of per-node values per
item, a mask query per key, and a scan of every in-flight record to
settle a parked read.  Hypothesis writes small runs — committed, aborted
and unrecorded updates at overlapping bits, read transactions whose
values are exact, fractured, off by a bit, ``None``, floats drifting
inside or outside ``FLOAT_DRIFT_TOLERANCE``, on replicated slot keys and
on non-balance keys, entities corrected mid-run, versions left unsettled
— and audits each one post-hoc and rolling with both.  The reports must
be equal, the order of their violations included.

A fractured item whose values do not sort (one node showing it as both
``None`` and ``0``) is reported by both with its pairs ordered by
``repr``.  An entity read as a float balance because it is corrected
later in the run is checked, rolling, before the correction is known:
both auditors report it as one snapshot mismatch naming the value.  So
every audit, post-hoc and rolling, is compared report to report, and an
error in either fails.
"""

from __future__ import annotations

import types
import typing

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import audit
from repro.analysis.rolling import MAX_EVIDENCE, RollingAuditor
from repro.analysis.serializability import FLOAT_DRIFT_TOLERANCE
from repro.txn.history import AdvancementRecord, History, TxnKind
from tests import reference_audit as reference

NODES = ("n0", "n1", "n2")
VERSIONS = st.one_of(st.none(), st.integers(1, 4))

#: How a read event's value relates to the committed mask it should be.
VALUE_KINDS = ("exact", "exact", "exact", "flip", "none", "zero",
               "drift", "far")

#: (entity, bit, version, fate) per update.
UPDATES = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 7), VERSIONS,
              st.sampled_from(["committed", "committed", "aborted",
                               "unrecorded"])),
    max_size=10)

#: (node, entity, key shape, value kind) per read event.
READ_EVENTS = st.lists(
    st.tuples(st.sampled_from(NODES), st.integers(0, 2),
              st.sampled_from(["bal", "bal", "slot0", "slot1", "log"]),
              st.sampled_from(VALUE_KINDS)),
    min_size=1, max_size=6)

#: (version, fate, events) per read transaction.
READS = st.lists(
    st.tuples(VERSIONS,
              st.sampled_from(["committed"] * 6 + ["aborted", "update"]),
              READ_EVENTS),
    max_size=8)


def _mask(updates, entity: int, version: typing.Optional[int]) -> int:
    mask = 0
    for update_entity, bit, update_version, fate in updates:
        if update_entity != entity or fate != "committed":
            continue
        if version is not None and (update_version is None
                                    or update_version > version):
            continue
        mask |= 1 << bit
    return mask


def _value(kind: str, mask: int, floats: bool):
    """A read event's value; ``floats`` reads a money-like balance, where
    ``drift`` stays inside the tolerance and ``far`` does not."""
    base = float(mask) + 100.0 if floats else mask
    if kind == "flip":
        return mask ^ 1
    if kind == "none":
        return None
    if kind == "zero":
        return 0
    if kind == "drift":
        return base * (1 + FLOAT_DRIFT_TOLERANCE / 10) if floats else base
    if kind == "far":
        return base + 0.5 if floats else mask ^ 2
    return base


def _key(shape: str, entity: int):
    if shape == "slot0":
        return f"bal:{entity}#0"
    if shape == "slot1":
        return f"bal:{entity}#1"
    if shape == "log":
        return f"log:{entity}"
    return f"bal:{entity}"


class Run:
    """One generated run: its transactions and the read events' values."""

    def __init__(self, updates, reads, corrected, check_snapshots,
                 float_balances):
        self.updates = updates
        self.corrected = corrected
        self.txns = []  # (name, kind, version, fate, [(node, key, value)])
        for index, (entity, bit, version, fate) in enumerate(updates):
            self.txns.append((f"rec-{index}", TxnKind.UPDATE, version,
                              fate, []))
        for index, (version, fate, events) in enumerate(reads):
            values = []
            for node, entity, shape, kind in events:
                # A float balance would fail the bitmask comparison with
                # a TypeError in either auditor: only a corrected entity,
                # which that comparison skips, is read as a float there.
                floats = entity in corrected or (
                    float_balances and not check_snapshots)
                if shape == "log":
                    value = ("a",) if kind == "exact" else ("a", node)
                else:
                    value = _value(kind, _mask(updates, entity, version),
                                   floats)
                values.append((node, _key(shape, entity), value))
            kind = TxnKind.UPDATE if fate == "update" else TxnKind.READ
            self.txns.append((f"inq-{index}", kind, version, fate, values))

    def workload(self, corrections):
        return types.SimpleNamespace(
            update_amounts={f"rec-{index}": (entity, 1 << bit)
                            for index, (entity, bit, _v, _f)
                            in enumerate(self.updates)},
            correction_entities=corrections)

    def begin(self, history: History, order) -> None:
        for index in order:
            name, kind, version, fate, values = self.txns[index]
            if fate == "unrecorded":
                continue
            history.begin_txn(name, kind, version, 0.0, "n0")
            for node, key, value in values:
                history.read(time=0.0, txn=name, subtxn=name, node=node,
                             key=key, version_requested=version,
                             version_used=version, value=value)
            if fate == "aborted":
                history.aborted(name, 0.0)


@settings(max_examples=300, deadline=None)
@given(UPDATES, READS, st.sets(st.integers(0, 2), max_size=2),
       st.booleans(), st.booleans(), st.randoms(use_true_random=False))
def test_post_hoc_audit_equals_the_reference(updates, reads, corrected,
                                              check_snapshots, floats, rng):
    run = Run(updates, reads, corrected, check_snapshots, floats)
    history = History(events=("read",))
    order = list(range(len(run.txns)))
    rng.shuffle(order)
    run.begin(history, order)
    corrections = {f"cor-{e}": e for e in sorted(corrected)}
    new = audit(history, run.workload(corrections),
                check_snapshots=check_snapshots)
    old = reference.audit(history, run.workload(corrections),
                          check_snapshots=check_snapshots)
    assert new == old


@settings(max_examples=300, deadline=None)
@given(UPDATES, READS, st.sets(st.integers(0, 2), max_size=2),
       st.booleans(), st.booleans(), st.sampled_from([0, 1, 3, 65536]),
       st.randoms(use_true_random=False), st.data())
def test_rolling_audit_equals_the_reference(updates, reads, corrected,
                                            check_snapshots, floats, window,
                                            rng, data):
    run = Run(updates, reads, corrected, check_snapshots, floats)
    history = History(events=("read",), retain=False)
    # Both auditors consume their own update_amounts; the corrections
    # are one dict, which the run extends between retirements.
    corrections: typing.Dict[str, int] = {}
    new = RollingAuditor(history, run.workload(corrections),
                         check_snapshots=check_snapshots, window=window)
    old = reference.ReferenceAuditor(
        history, run.workload(corrections),
        check_snapshots=check_snapshots, window=window)
    history.add_retire_sink(new.on_retire)
    history.add_retire_sink(old.on_retire)
    order = list(range(len(run.txns)))
    rng.shuffle(order)
    run.begin(history, order)
    # Completions, version closures and corrections, interleaved: a
    # version closed early leaves updates of it in flight (unsettled), a
    # version never closed settles only at report().
    steps = [("done", name) for name, _k, _v, fate, _e in run.txns
             if fate != "unrecorded"]
    steps += [("close", version) for version in data.draw(
        st.sets(st.integers(1, 4)), label="closed")]
    steps += [("correct", entity) for entity in sorted(corrected)]
    steps = data.draw(st.permutations(steps), label="steps")
    closes = sorted(version for step, version in steps if step == "close")
    clock = 0.0
    for step, target in steps:
        clock += 1.0
        if step == "done":
            history.globally_completed(target, clock)
        elif step == "close":
            # Waves close versions in order.
            version = closes.pop(0)
            history.advancements.append(AdvancementRecord(
                new_update_version=version + 1, started=clock,
                phase1_done=clock))
        else:
            corrections[f"cor-{target}"] = target
        assert new.tally == old.tally
        assert [record for record, _balances, _events in new._pending] == [
            record for record, _by_key in old._pending]
    assert new.report() == old.report()


def test_evidence_keeps_the_reference_order_past_the_cap():
    # More fractured reads than MAX_EVIDENCE, interleaved with clean ones:
    # the same first MAX_EVIDENCE, in the order of their first events.
    history = History(events=("read",))
    for index in range(3 * MAX_EVIDENCE):
        name = f"inq-{index}"
        history.begin_txn(name, TxnKind.READ, 1, 0.0, "n0")
    for node, value in (("n0", 0), ("n1", 1)):
        for index in reversed(range(3 * MAX_EVIDENCE)):
            name = f"inq-{index}"
            history.read(time=0.0, txn=name, subtxn=name, node=node,
                         key=f"bal:{index % 7}", version_requested=1,
                         version_used=1,
                         value=value if index % 2 else 0)
    new = audit(history)
    assert new == reference.audit(history)
    assert new.fractured_reads == 3 * MAX_EVIDENCE // 2
    assert len(new.violations) == MAX_EVIDENCE
    assert new.violations[0].txn == f"inq-{3 * MAX_EVIDENCE - 1}"


def test_a_read_whose_values_do_not_sort_is_one_fractured_read():
    # One node shows the item as 0 on one slot and None on the other.
    history = History(events=("read",))
    history.begin_txn("inq", TxnKind.READ, 1, 0.0, "n0")
    for key, value in (("bal:1#0", 0), ("bal:1#1", None)):
        history.read(time=0.0, txn="inq", subtxn="inq", node="n0", key=key,
                     version_requested=1, version_used=1, value=value)
    report = audit(history)
    assert report == reference.audit(history)
    assert report.fractured_reads == 1
    [violation] = report.violations
    assert (violation.kind, violation.txn, violation.key) == (
        "fractured-read", "inq", "bal:1")
    assert violation.details == "per-node values [('n0', 0), ('n0', None)]"
