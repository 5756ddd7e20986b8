"""Property tests: incremental aggregate quiescence ≡ the full scan.

The two-wave detector now polls one scalar per node per wave
(``CounterTable.request_total`` / ``completion_total``, summed by
:func:`repro.storage.counters.aggregate_quiescent`) instead of shipping
O(nodes) rows and scanning O(nodes²) cells.  These properties pin the
soundness argument from the module docstring:

* the incrementally-maintained totals always equal the sum of the
  per-peer rows, under arbitrary interleavings of increments, version
  allocation, garbage collection, and crash-recovery (WAL replay
  re-deriving the totals from the redo log);
* on any reachable two-wave snapshot (completions read strictly before
  requests), the aggregate verdict equals the full-scan verdict, and
  both equal ground truth (no subtransaction outstanding).
"""

from __future__ import annotations

import dataclasses
import typing

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.counters import (
    CounterTable,
    aggregate_quiescent,
    quiescent,
)
from repro.storage.wal import JournaledCounters

NODES = ("a", "b", "c")
VERSIONS = (1, 2, 3)


@dataclasses.dataclass(frozen=True)
class Send:
    src: str
    dst: str
    version: int


@dataclasses.dataclass(frozen=True)
class Complete:
    #: Which in-flight send to complete (modulo the pending count).
    pick: int


@dataclasses.dataclass(frozen=True)
class Gc:
    node: str
    version: int


@dataclasses.dataclass(frozen=True)
class Crash:
    node: str


ops = st.lists(
    st.one_of(
        st.builds(Send, st.sampled_from(NODES), st.sampled_from(NODES),
                  st.sampled_from(VERSIONS)),
        st.builds(Complete, st.integers(min_value=0, max_value=10 ** 6)),
        st.builds(Crash, st.sampled_from(NODES)),
    ),
    max_size=60,
)

ops_with_gc = st.lists(
    st.one_of(
        st.builds(Send, st.sampled_from(NODES), st.sampled_from(NODES),
                  st.sampled_from(VERSIONS)),
        st.builds(Complete, st.integers(min_value=0, max_value=10 ** 6)),
        st.builds(Crash, st.sampled_from(NODES)),
        st.builds(Gc, st.sampled_from(NODES), st.sampled_from(VERSIONS)),
    ),
    max_size=60,
)


def journaled(node_id: str) -> JournaledCounters:
    return JournaledCounters(CounterTable(node_id),
                             lambda: CounterTable(node_id))


def apply_ops(tables: typing.Dict[str, JournaledCounters],
              sequence) -> typing.List[Send]:
    """Drive the tables; returns the sends still outstanding."""
    pending: typing.List[Send] = []
    for op in sequence:
        if isinstance(op, Send):
            tables[op.src].ensure_version(op.version)
            tables[op.src].inc_request(op.version, op.dst)
            pending.append(op)
        elif isinstance(op, Complete):
            if not pending:
                continue
            send = pending.pop(op.pick % len(pending))
            tables[send.dst].ensure_version(send.version)
            tables[send.dst].inc_completion(send.version, send.src)
        elif isinstance(op, Gc):
            tables[op.node].gc_below(op.version)
        else:  # Crash: lose the volatile table, rebuild from the redo log.
            tables[op.node].replay()
    return pending


def assert_totals_match_rows(table: CounterTable) -> None:
    for version in table.versions():
        assert table.request_total(version) == \
            sum(table.requests(version).values())
        assert table.completion_total(version) == \
            sum(table.completions(version).values())
        assert table.outstanding(version) == (
            table.request_total(version) - table.completion_total(version))


@settings(deadline=None)
@given(ops_with_gc)
def test_totals_track_rows_through_gc_and_replay(sequence):
    """The aggregate totals are always exactly the sum of the rows —
    including after GC drops versions and WAL replay rebuilds the table
    (re-deriving the totals by re-running the logged increments)."""
    tables = {node: journaled(node) for node in NODES}
    apply_ops(tables, sequence)
    for wrapper in tables.values():
        assert_totals_match_rows(wrapper.raw)


@settings(deadline=None)
@given(ops_with_gc)
def test_replay_restores_identical_state(sequence):
    """Crash recovery is exact: rows, totals, and the GC loss counter all
    survive a replay bit-for-bit."""
    tables = {node: journaled(node) for node in NODES}
    apply_ops(tables, sequence)
    for wrapper in tables.values():
        before = wrapper.raw
        snapshot = {
            version: (before.requests(version), before.completions(version),
                      before.request_total(version),
                      before.completion_total(version))
            for version in before.versions()
        }
        lost = before.lost_increments
        wrapper.replay()
        after = wrapper.raw
        assert after is not before
        assert after.versions() == list(snapshot)
        assert after.lost_increments == lost
        for version, (reqs, comps, req_total, comp_total) in \
                snapshot.items():
            assert after.requests(version) == reqs
            assert after.completions(version) == comps
            assert after.request_total(version) == req_total
            assert after.completion_total(version) == comp_total


@settings(deadline=None)
@given(ops, st.sampled_from(VERSIONS),
       st.lists(st.builds(Send, st.sampled_from(NODES),
                          st.sampled_from(NODES), st.sampled_from(VERSIONS)),
                max_size=8))
def test_aggregate_agrees_with_scan_on_two_wave_snapshots(
        sequence, version, between_waves):
    """On every reachable two-wave snapshot the aggregate verdict, the
    full-scan verdict, and ground truth coincide.

    ``between_waves`` injects extra request increments after the
    completion wave was read — the racy interleaving the two-wave order
    exists to tolerate: the new requests can only make snapshots look
    *less* quiescent, never more.
    """
    tables = {node: journaled(node) for node in NODES}
    pending = apply_ops(tables, sequence)

    # Wave 1: completions (totals and rows read at the same instant).
    comp_totals = {n: t.completion_total(version)
                   for n, t in tables.items()}
    comp_rows = {n: t.completions(version) for n, t in tables.items()}
    # In-flight work lands between the waves.
    for send in between_waves:
        tables[send.src].ensure_version(send.version)
        tables[send.src].inc_request(send.version, send.dst)
        pending.append(send)
    # Wave 2: requests.
    req_totals = {n: t.request_total(version) for n, t in tables.items()}
    req_rows = {n: t.requests(version) for n, t in tables.items()}

    truth = not any(send.version == version for send in pending)
    assert aggregate_quiescent(req_totals, comp_totals) == truth
    assert quiescent(req_rows, comp_rows) == truth
