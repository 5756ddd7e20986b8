"""What the audit costs per clean read, in profiled calls.

A clean read — every value of an item equal, every balance equal to its
committed mask — is settled by one pass over the ``(key, value)`` pairs
on its record and one mask lookup per entity.  Calls (Python frames and
builtins alike, as ``pstats`` counts them) are exact where a timing is
not, so the budgets cannot flap on a noisy host; each also holds in a
run four times as long, where a lookup that walked every version or a
check that scanned every span would grow.
"""

from __future__ import annotations

import cProfile
import pstats
import types

import pytest

from repro.analysis import audit
from repro.analysis.metrics import advancement_stalls
from repro.analysis.rolling import RollingAuditor
from repro.analysis.serializability import CommittedMasks
from repro.txn.history import AdvancementRecord, History, TxnKind

ENTITIES = 8
NODES = ("n0", "n1")


def _clean_run(versions: int):
    """``versions`` versions of updates (two per entity per version) and
    of inquiries (one per entity per version, read on two nodes, each
    value its committed mask), retained."""
    history = History(events=("read",))
    workload = types.SimpleNamespace(update_amounts={},
                                     correction_entities={})
    masks = {entity: 0 for entity in range(ENTITIES)}
    bit = 0
    for version in range(1, versions + 1):
        for entity in range(ENTITIES):
            for _ in range(2):
                name = f"rec-{bit}"
                history.begin_txn(name, TxnKind.UPDATE, version, 0.0, "n0")
                workload.update_amounts[name] = (entity, 1 << bit)
                masks[entity] |= 1 << bit
                bit += 1
        for entity in range(ENTITIES):
            name = f"inq-{version}:{entity}"
            history.begin_txn(name, TxnKind.READ, version, float(version),
                              "n0")
            for node in NODES:
                history.read(time=0.0, txn=name, subtxn=name, node=node,
                             key=f"bal:{entity}", version_requested=version,
                             version_used=version, value=masks[entity])
    return history, workload


def _calls(function) -> int:
    profiler = cProfile.Profile()
    profiler.enable()
    function()
    profiler.disable()
    return pstats.Stats(profiler).total_calls


#: Profiled calls per clean read transaction (one key on two nodes): the
#: post-hoc audit's, and the rolling audit's on its retire path.  The
#: per-read check these replaced made about 38 and 43.
POST_HOC_BUDGET = 7.0
ROLLING_BUDGET = 18.0


@pytest.mark.parametrize("versions", [25, 100])
def test_post_hoc_calls_per_clean_read(versions):
    history, workload = _clean_run(versions)
    reads = versions * ENTITIES
    report = None

    def run():
        nonlocal report
        report = audit(history, workload, check_snapshots=True)

    # The index is built once per run, not per read: count it apart.
    index = _calls(lambda: CommittedMasks.from_history(
        history, workload.update_amounts))
    per_read = (_calls(run) - index) / reads
    assert report.clean and report.reads_checked == reads
    assert per_read <= POST_HOC_BUDGET, f"{per_read:.2f} calls per read"


def _rolling_calls(versions: int, audited: bool):
    """Profiled calls of retiring the reads of a streaming run shaped
    like :func:`_clean_run`: per version, its updates retire, the version
    closes, then its reads retire — each read settled on arrival, through
    ``on_retire``, the pending window and the in-flight count, as a
    ``stream=1`` run checks one.  Unaudited, the same run with no sink."""
    history = History(events=("read",), retain=False)
    workload = types.SimpleNamespace(update_amounts={},
                                     correction_entities={})
    auditor = RollingAuditor(history, workload, check_snapshots=True)
    if audited:
        history.add_retire_sink(auditor.on_retire)
    profiler = cProfile.Profile()
    masks = {entity: 0 for entity in range(ENTITIES)}
    bit = 0
    for version in range(1, versions + 1):
        clock = float(version)
        updates = []
        for entity in range(ENTITIES):
            for _ in range(2):
                name = f"rec-{bit}"
                history.begin_txn(name, TxnKind.UPDATE, version, clock, "n0")
                workload.update_amounts[name] = (entity, 1 << bit)
                masks[entity] |= 1 << bit
                updates.append(name)
                bit += 1
        reads = []
        for entity in range(ENTITIES):
            name = f"inq-{version}:{entity}"
            history.begin_txn(name, TxnKind.READ, version, clock, "n0")
            for node in NODES:
                history.read(time=clock, txn=name, subtxn=name, node=node,
                             key=f"bal:{entity}", version_requested=version,
                             version_used=version, value=masks[entity])
            reads.append(name)
        for name in updates:
            history.globally_completed(name, clock)
        history.advancements.append(AdvancementRecord(
            new_update_version=version + 1, started=clock,
            phase1_done=clock))
        profiler.enable()
        for name in reads:
            history.globally_completed(name, clock)
        profiler.disable()
    return pstats.Stats(profiler).total_calls, auditor


@pytest.mark.parametrize("versions", [25, 100])
def test_rolling_calls_per_clean_read(versions):
    audited, auditor = _rolling_calls(versions, audited=True)
    unaudited, _auditor = _rolling_calls(versions, audited=False)
    reads = versions * ENTITIES
    per_read = (audited - unaudited) / reads
    assert not auditor._pending  # each read settled as it retired
    report = auditor.report()
    assert report.clean and report.reads_checked == reads
    assert per_read <= ROLLING_BUDGET, f"{per_read:.2f} calls per read"


@pytest.mark.parametrize("versions", [25, 100])
def test_stall_watchdog_calls_do_not_grow_with_spans(versions):
    # One stall span per version: a read's span is found by bisection,
    # not by a generator over every span.
    history, _workload = _clean_run(versions)
    for version in range(1, versions + 1):
        history.advancements.append(AdvancementRecord(
            new_update_version=version + 1, started=float(version),
            phase1_done=float(version), phase3_done=float(3 * version)))
    calls = _calls(lambda: advancement_stalls(
        history, horizon=3.0 * versions + 1, budget=1.0))
    per_read = calls / (versions * ENTITIES)
    assert advancement_stalls(history, 3.0 * versions + 1, 1.0).count
    assert per_read <= 3.0, f"{per_read:.2f} calls per read"
