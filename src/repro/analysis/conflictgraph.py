"""Commutativity-aware conflict-graph serializability checking.

A second, independent correctness instrument alongside the bitmask
oracle: build the serialization graph of a detailed history and test it
for cycles.  Nodes are committed transactions; there is an edge
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

For a fractured read the graph shows a crisp witness: the reader
observed key copies *before* an update on one node and *after* it on
another, producing the two-cycle ``reader -> updater -> reader``.
"""

from __future__ import annotations

import typing

from repro.errors import ReproError
from repro.txn.history import History

if typing.TYPE_CHECKING:
    import networkx


def _networkx():
    """``networkx``, loaded on first use: only the graph checker needs it,
    and no simulation run builds the graph."""
    try:
        import networkx
    except ImportError as error:
        raise ReproError(
            "the conflict-graph checker needs networkx; install the "
            "'analysis' extra (pip install 'repro[analysis]')"
        ) from error
    return networkx


class ConflictEdge(typing.NamedTuple):
    """Why the graph contains ``src -> dst``."""

    src: str
    dst: str
    node: str
    key: typing.Hashable
    version: typing.Optional[int]
    kinds: str  # "wr", "rw", or "ww"


def _committed(history: History) -> typing.Set[str]:
    return {
        record.name
        for record in history.txns.values()
        if not record.aborted
    }


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


def build_serialization_graph(history: History) -> networkx.DiGraph:
    """Construct the commutativity-aware serialization graph.

    Edge data: ``witnesses`` — a list of :class:`ConflictEdge` explaining
    each edge (capped at 5 per edge to bound memory).
    """
    graph = _networkx().DiGraph()
    graph.add_nodes_from(_committed(history))
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
                if graph.has_edge(txn_a, txn_b):
                    witnesses = graph[txn_a][txn_b]["witnesses"]
                    if len(witnesses) < 5:
                        witnesses.append(ConflictEdge(
                            txn_a, txn_b, node, key, version,
                            kind_a + kind_b,
                        ))
                else:
                    graph.add_edge(txn_a, txn_b, witnesses=[ConflictEdge(
                        txn_a, txn_b, node, key, version, kind_a + kind_b,
                    )])
    return graph


def serialization_cycles(
    history: History, limit: int = 5
) -> typing.List[typing.List[str]]:
    """Return up to ``limit`` cycles of the serialization graph.

    An empty list certifies commutativity-aware conflict serializability
    of the history.
    """
    graph = build_serialization_graph(history)
    cycles = []
    for cycle in _networkx().simple_cycles(graph):
        cycles.append(cycle)
        if len(cycles) >= limit:
            break
    return cycles


def is_conflict_serializable(history: History) -> bool:
    """Convenience wrapper: ``True`` iff the graph is acyclic."""
    return _networkx().is_directed_acyclic_graph(
        build_serialization_graph(history)
    )


def equivalent_serial_order(history: History) -> typing.List[str]:
    """A witness serial order (topological sort of the graph).

    Raises:
        networkx.NetworkXUnfeasible: If the history is not serializable.
    """
    return list(_networkx().topological_sort(
        build_serialization_graph(history)
    ))
