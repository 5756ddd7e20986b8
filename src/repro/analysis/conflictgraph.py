"""Commutativity-aware conflict-graph serializability checking.

A second, independent correctness instrument alongside the bitmask
oracle: build the serialization graph of a history that keeps read and
write events (a :class:`~repro.txn.history.History` declares which it
keeps; a recording run keeps writes only for the trace it exports to
``trace_path``, and the graph refuses a history without them) and test
it for cycles.  Nodes are committed transactions; there is an edge
``T1 -> T2`` whenever ``T1`` performed an operation on some
``(node, key, version)`` copy before a *conflicting* operation of ``T2``
on the same copy.  Two operations conflict unless

* both are reads, or
* both are writes whose operations commute (Definition 3.1 — increments
  against increments produce the same state in either order, so their
  relative order is unobservable and induces no constraint).

Acyclicity of this graph is commutativity-aware conflict
serializability; every conflict-serializable history is serializable in
the classical sense.  The checker is protocol-agnostic: single-version
baselines put everything on version 0; the 3V protocol's dual writes are
expanded to every version they touched (recorded in
``WriteEvent.versions``).

The graph is a plain adjacency dict (:data:`Graph`).  Kahn's algorithm
orders it; the transactions it cannot order lie on or after a cycle, and
a walk back over them finds the cycles.

For a fractured read the graph shows a crisp witness: the reader
observed key copies *before* an update on one node and *after* it on
another, producing the two-cycle ``reader -> updater -> reader``.
"""

from __future__ import annotations

import collections
import typing

from repro.errors import ReproError
from repro.txn.history import History


class ConflictEdge(typing.NamedTuple):
    """Why the graph contains ``src -> dst``."""

    src: str
    dst: str
    node: str
    key: typing.Hashable
    version: typing.Optional[int]
    kinds: str  # "wr", "rw", or "ww"


def _committed(history: History) -> typing.Dict[str, None]:
    """The committed transactions' names, in the history's order."""
    return dict.fromkeys(
        record.name
        for record in history.txns.values()
        if not record.aborted
    )


def _copy_events(history: History):
    """Yield ``(copy, time, txn, kind, operation)`` per touched copy."""
    committed = _committed(history)
    for event in history.read_events:
        if event.txn in committed:
            copy = (event.node, event.key, event.version_used)
            yield copy, event.time, event.txn, "r", None
    for event in history.write_events:
        if event.txn in committed and not event.compensating:
            for version in event.touched_versions:
                copy = (event.node, event.key, version)
                yield copy, event.time, event.txn, "w", event.operation


def _conflicts(kind_a: str, op_a, kind_b: str, op_b) -> bool:
    if kind_a == "r" and kind_b == "r":
        return False
    if kind_a == "w" and kind_b == "w":
        commuting = (
            op_a is not None and op_b is not None
            and op_a.commutes and op_b.commutes
        )
        return not commuting
    return True


#: ``graph[src][dst]`` lists the :class:`ConflictEdge` witnesses of the
#: edge ``src -> dst``; every committed transaction is a key.
Graph = typing.Dict[str, typing.Dict[str, typing.List[ConflictEdge]]]


def build_serialization_graph(history: History) -> Graph:
    """Construct the commutativity-aware serialization graph.

    Each edge's witnesses are capped at 5 to bound memory.

    Raises:
        ReproError: If the history keeps no write events: its graph
            would have no edges and certify any history.
    """
    if not history.keeps_writes:
        raise ReproError(
            "the serialization graph needs a history that keeps write "
            "events; record the run with a trace_path (os.devnull will "
            "do) or build History(events=('read', 'write'))")
    graph: Graph = {txn: {} for txn in _committed(history)}
    per_copy: typing.Dict[tuple, list] = {}
    for copy, time, txn, kind, operation in _copy_events(history):
        per_copy.setdefault(copy, []).append((time, txn, kind, operation))
    for copy, events in per_copy.items():
        events.sort(key=lambda item: item[0])
        for index, (_time_a, txn_a, kind_a, op_a) in enumerate(events):
            for _time_b, txn_b, kind_b, op_b in events[index + 1:]:
                if txn_a == txn_b:
                    continue
                if not _conflicts(kind_a, op_a, kind_b, op_b):
                    continue
                node, key, version = copy
                witnesses = graph[txn_a].setdefault(txn_b, [])
                if len(witnesses) < 5:
                    witnesses.append(ConflictEdge(
                        txn_a, txn_b, node, key, version, kind_a + kind_b,
                    ))
    return graph


def _topological_order(
    graph: Graph,
) -> typing.Tuple[typing.List[str], typing.Dict[str, int]]:
    """Kahn's algorithm: the nodes it can order, in order, and the
    in-degree left on each node it cannot (empty iff acyclic).  Each node
    left behind keeps at least one edge from another node left behind."""
    indegree = dict.fromkeys(graph, 0)
    for successors in graph.values():
        for dst in successors:
            indegree[dst] += 1
    ready = collections.deque(
        txn for txn, degree in indegree.items() if degree == 0)
    order = []
    while ready:
        txn = ready.popleft()
        order.append(txn)
        for dst in graph[txn]:
            indegree[dst] -= 1
            if indegree[dst] == 0:
                ready.append(dst)
    return order, {txn: degree for txn, degree in indegree.items() if degree}


def serialization_cycles(
    history: History, limit: int = 5
) -> typing.List[typing.List[str]]:
    """Return up to ``limit`` node-disjoint cycles of the serialization
    graph, each a list whose consecutive nodes (and last to first) are
    edges.

    An empty list certifies commutativity-aware conflict serializability
    of the history.
    """
    graph = build_serialization_graph(history)
    _order, stuck = _topological_order(graph)
    # Every stuck node has a stuck predecessor, so walking back along one
    # fixed predecessor per node must close a cycle; a walk that reaches a
    # node an earlier walk visited would only close that walk's cycle.
    predecessor: typing.Dict[str, str] = {}
    for src in stuck:
        for dst in graph[src]:
            if dst in stuck:
                predecessor.setdefault(dst, src)
    walked: typing.Dict[str, int] = {}
    cycles = []
    for walk, start in enumerate(stuck):
        path = []
        txn = start
        while txn not in walked:
            walked[txn] = walk
            path.append(txn)
            txn = predecessor[txn]
        if walked[txn] == walk:
            cycles.append(path[path.index(txn):][::-1])
            if len(cycles) >= limit:
                break
    return cycles


def is_conflict_serializable(history: History) -> bool:
    """``True`` iff the serialization graph is acyclic."""
    return not _topological_order(build_serialization_graph(history))[1]


def equivalent_serial_order(history: History) -> typing.List[str]:
    """A witness serial order (topological sort of the graph).

    Raises:
        ReproError: If the history is not serializable.
    """
    order, stuck = _topological_order(build_serialization_graph(history))
    if stuck:
        raise ReproError(
            f"not conflict-serializable: {len(stuck)} transactions lie on "
            f"or after a serialization cycle"
        )
    return order
