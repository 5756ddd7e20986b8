"""Tests for the commutativity-aware serialization-graph checker.

The differential tests hold the standard-library graph pass to
``networkx`` where it is installed (a test-only reference); the rest run
without it.
"""

import functools
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    audit,
    build_serialization_graph,
    equivalent_serial_order,
    is_conflict_serializable,
    serialization_cycles,
)
from repro.errors import ReproError
from repro.storage import Assign, Increment
from repro.txn import History, TxnKind
from repro.workloads import run_recording_experiment


def history_with(events):
    """Build a detailed history from (kind, time, txn, node, key, op) rows."""
    history = History()
    for row in events:
        if row[2] not in history.txns:
            history.begin_txn(row[2], TxnKind.UPDATE, 0, 0.0, row[3])
            history.globally_completed(row[2], 99.0)
    for kind, time, txn, node, key, op in events:
        if kind == "r":
            history.read(time, txn, txn, node, key, 0, 0, None)
        else:
            history.wrote(time, txn, txn, node, key, 0, 1, op)
    return history


def edges(graph):
    return {(src, dst) for src, successors in graph.items()
            for dst in successors}


class TestSyntheticHistories:
    def test_commuting_writes_induce_no_edges(self):
        history = history_with([
            ("w", 1.0, "t1", "a", "x", Increment(1)),
            ("w", 2.0, "t2", "a", "x", Increment(2)),
        ])
        graph = build_serialization_graph(history)
        assert edges(graph) == set()
        assert is_conflict_serializable(history)

    def test_non_commuting_writes_induce_edge(self):
        history = history_with([
            ("w", 1.0, "t1", "a", "x", Assign(1)),
            ("w", 2.0, "t2", "a", "x", Assign(2)),
        ])
        graph = build_serialization_graph(history)
        assert edges(graph) == {("t1", "t2")}

    def test_read_write_conflicts_ordered_by_time(self):
        history = history_with([
            ("r", 1.0, "q", "a", "x", None),
            ("w", 2.0, "u", "a", "x", Increment(1)),
        ])
        graph = build_serialization_graph(history)
        assert edges(graph) == {("q", "u")}
        assert equivalent_serial_order(history) == ["q", "u"]

    def test_fractured_read_creates_cycle(self):
        """The reader sees x before u at node a, and y after u at node b:
        u -> reader -> u."""
        history = history_with([
            ("w", 1.0, "u", "b", "y", Increment(1)),
            ("r", 2.0, "q", "b", "y", None),   # u -> q
            ("r", 3.0, "q", "a", "x", None),
            ("w", 4.0, "u", "a", "x", Increment(1)),  # q -> u
        ])
        assert not is_conflict_serializable(history)
        cycles = serialization_cycles(history)
        assert any(set(cycle) == {"u", "q"} for cycle in cycles)
        with pytest.raises(ReproError):
            equivalent_serial_order(history)

    def test_aborted_txns_excluded(self):
        history = history_with([
            ("w", 1.0, "dead", "a", "x", Assign(1)),
            ("w", 2.0, "t2", "a", "x", Assign(2)),
        ])
        history.aborted("dead", 3.0)
        graph = build_serialization_graph(history)
        assert list(graph) == ["t2"]

    def test_different_copies_do_not_conflict(self):
        """Writes to different versions of the same key touch different
        physical copies."""
        history = History()
        history.begin_txn("t1", TxnKind.UPDATE, 1, 0.0, "a")
        history.begin_txn("t2", TxnKind.UPDATE, 2, 0.0, "a")
        history.globally_completed("t1", 9.0)
        history.globally_completed("t2", 9.0)
        history.wrote(1.0, "t1", "t1", "a", "x", 1, 1, Assign(1),
                      versions=(1,))
        history.wrote(2.0, "t2", "t2", "a", "x", 2, 1, Assign(2),
                      versions=(2,))
        graph = build_serialization_graph(history)
        assert edges(graph) == set()

    def test_edge_witnesses_recorded(self):
        history = history_with([
            ("r", 1.0, "q", "a", "x", None),
            ("w", 2.0, "u", "a", "x", Increment(1)),
        ])
        graph = build_serialization_graph(history)
        witness = graph["q"]["u"][0]
        assert witness.kinds == "rw"
        assert witness.key == "x"


    def test_witnesses_capped_at_five(self):
        history = history_with([
            ("r", float(time), "q", "a", key, None) for time, key in
            enumerate("vwxyz01")
        ] + [
            ("w", 10.0 + time, "u", "a", key, Increment(1)) for time, key in
            enumerate("vwxyz01")
        ])
        assert len(build_serialization_graph(history)["q"]["u"]) == 5

    def test_cycles_are_node_disjoint_and_limited(self):
        """Three two-cycles ``q_i <-> u_i``: one cycle each, ``limit``
        honoured."""
        rows = []
        for i in range(3):
            rows += [
                ("w", 1.0, f"u{i}", "b", f"y{i}", Increment(1)),
                ("r", 2.0, f"q{i}", "b", f"y{i}", None),
                ("r", 3.0, f"q{i}", "a", f"x{i}", None),
                ("w", 4.0, f"u{i}", "a", f"x{i}", Increment(1)),
            ]
        history = history_with(rows)
        cycles = serialization_cycles(history)
        assert sorted(sorted(cycle) for cycle in cycles) == [
            [f"q{i}", f"u{i}"] for i in range(3)]
        assert len(serialization_cycles(history, limit=2)) == 2


def check_against_networkx(history):
    """The graph pass against ``networkx`` on the same graph: the same
    acyclic verdict, every returned cycle a cycle of the graph, and the
    returned order respecting every edge."""
    networkx = pytest.importorskip("networkx")
    graph = build_serialization_graph(history)
    reference = networkx.DiGraph()
    reference.add_nodes_from(graph)
    reference.add_edges_from(edges(graph))
    acyclic = networkx.is_directed_acyclic_graph(reference)
    assert is_conflict_serializable(history) == acyclic
    cycles = serialization_cycles(history)
    assert bool(cycles) != acyclic
    for cycle in cycles:
        assert len(set(cycle)) == len(cycle)
        for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
            assert reference.has_edge(src, dst), (cycle, src, dst)
    if not acyclic:
        with pytest.raises(ReproError):
            equivalent_serial_order(history)
        return
    order = equivalent_serial_order(history)
    assert sorted(order) == sorted(graph)
    position = {txn: index for index, txn in enumerate(order)}
    for src, dst in reference.edges:
        assert position[src] < position[dst], (src, dst)


ROWS = st.lists(st.tuples(
    st.sampled_from("rw"),
    st.integers(0, 20).map(float),
    st.sampled_from(["t0", "t1", "t2", "t3", "t4"]),
    st.sampled_from("ab"),
    st.sampled_from("xy"),
    st.sampled_from([Increment(1), Assign(1)]),  # a read ignores it
), max_size=24)


@settings(max_examples=300, deadline=None)
@given(ROWS)
def test_graph_pass_agrees_with_networkx(rows):
    check_against_networkx(history_with(rows))


#: The real runs of this file: protocol, replication factor, settings.
SMALL = dict(nodes=4, duration=20.0, update_rate=5.0, inquiry_rate=4.0,
             audit_rate=0.3, entities=10, span=3, seed=14)
BUSY = dict(nodes=4, duration=30.0, update_rate=6.0, inquiry_rate=5.0,
            audit_rate=0.3, entities=8, span=3, seed=14)
CROSS = dict(nodes=4, duration=25.0, update_rate=6.0, inquiry_rate=5.0,
             audit_rate=0.2, entities=8, span=3, seed=3)
RUNS = {"small": SMALL, "busy": BUSY, "cross": CROSS}
REAL_RUNS = [
    ("3v", "small", 1), ("2pc", "small", 1), ("nocoord", "busy", 1),
    ("3v", "cross", 1), ("nocoord", "cross", 1),
    ("3v", "cross", 3), ("nocoord", "cross", 3),
]


@functools.lru_cache(maxsize=None)
def recorded(protocol, run, replication_factor=1):
    # The graph reads write events, which a recording run keeps for the
    # trace it exports: here, to nowhere.
    return run_recording_experiment(
        protocol, replication_factor=replication_factor,
        trace_path=os.devnull, **RUNS[run])


class TestRealHistories:
    @pytest.mark.parametrize("check", [
        build_serialization_graph, is_conflict_serializable,
        equivalent_serial_order, serialization_cycles,
    ])
    def test_a_run_without_write_events_is_refused(self, check):
        """Without a ``trace_path`` a run keeps no write events, and a
        graph of reads alone has no edges: the oracle refuses it rather
        than certify every protocol."""
        history = run_recording_experiment("nocoord", **BUSY).history
        assert history.keeps_reads and not history.keeps_writes
        with pytest.raises(ReproError, match="write events"):
            check(history)

    def test_3v_histories_are_conflict_serializable(self):
        assert is_conflict_serializable(recorded("3v", "small").history)

    def test_2pc_histories_are_conflict_serializable(self):
        assert is_conflict_serializable(recorded("2pc", "small").history)

    def test_nocoord_histories_are_not(self):
        cycles = serialization_cycles(recorded("nocoord", "busy").history)
        assert cycles, "expected a serialization cycle under no coordination"

    def test_agrees_with_bitmask_oracle(self):
        """Cross-validation of the two instruments: on the same runs the
        graph checker and the bitmask oracle reach the same verdict, at
        replication factor 3 too (where a fractured read shows only
        across an entity's slots)."""
        for protocol, replication_factor in (
                ("3v", 1), ("nocoord", 1), ("3v", 3), ("nocoord", 3)):
            history = recorded(protocol, "cross", replication_factor).history
            oracle_clean = audit(history).clean
            graph_clean = is_conflict_serializable(history)
            assert oracle_clean == graph_clean, (protocol, replication_factor)

    @pytest.mark.parametrize("protocol, run, replication_factor", REAL_RUNS)
    def test_graph_pass_agrees_with_networkx(self, protocol, run,
                                             replication_factor):
        check_against_networkx(
            recorded(protocol, run, replication_factor).history)
