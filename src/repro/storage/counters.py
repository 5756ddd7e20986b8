"""Per-version request/completion counters (Section 2.2 / 4).

Node ``p`` keeps, for every active version ``v``:

* request counters ``R[v][q]`` — subtransactions *sent* from ``p`` to ``q``
  against version ``v`` (a root subtransaction arriving at ``p`` counts as a
  request from ``p`` to itself);
* completion counters ``C[v][o]`` — subtransactions invoked from ``o`` that
  *completed at* ``p`` against version ``v``.

"To preserve locality, request counters R_vpq are located at node p, and
completion counters C_vpq are located at node q" — so both tables live on
the node, indexed from its own point of view, and the advancement
coordinator assembles the global ``R[v][p][q] == C[v][p][q]`` check from
per-node snapshots read asynchronously (see
:mod:`repro.core.advancement` for the two-wave protocol that makes those
asynchronous reads sound).

Aggregate quiescence
--------------------

Alongside the per-peer rows each table maintains *per-version aggregate
totals* — ``sum(R[v])`` and ``sum(C[v])`` — incrementally on every
increment.  Because a completion can only ever be counted for a request
that was counted strictly earlier, ``C[v][p][q] <= R[v][p][q]`` holds
per pair under the two-wave read order, so

    ``sum_pq R[v][p][q] == sum_pq C[v][p][q]``  ⟺  pairwise equality

and the coordinator's quiescence check collapses from an O(nodes²)
counter scan (:func:`quiescent`) to summing one scalar per node
(:func:`aggregate_quiescent`).  The full scan stays for the C7
ablation's interleaved detector; ``tests/test_aggregate_quiescence.py``
property-checks the equivalence (including through garbage
collection).
"""

from __future__ import annotations

import typing

from repro.errors import CounterError

__all__ = ["CounterTable", "quiescent", "aggregate_quiescent"]

#: Shared empty row returned by the zero-copy views for absent versions.
#: Callers treat views as read-only, so one immutable-by-convention dict
#: serves every miss without allocating.
_EMPTY: typing.Final[typing.Dict[str, int]] = {}


class CounterTable:
    """Request/completion counters held by a single node."""

    __slots__ = ("node_id", "_requests", "_completions", "_req_totals",
                 "_comp_totals", "_gc_floor", "lost_increments")

    def __init__(self, node_id: str):
        self.node_id: str = node_id
        self._requests: typing.Dict[int, typing.Dict[str, int]] = {}
        self._completions: typing.Dict[int, typing.Dict[str, int]] = {}
        # Aggregate totals per version, maintained incrementally so the
        # quiescence path never scans the rows.  An allocated version
        # always has a totals entry, which doubles as the existence check
        # on the increment fast paths.
        self._req_totals: typing.Dict[int, int] = {}
        self._comp_totals: typing.Dict[int, int] = {}
        # Versions below this were garbage-collected.  Increments aimed at
        # them are *dropped* (and counted): this only happens when an
        # unsound quiescence detector collected a version that still had
        # stragglers in flight — the damage the C7 ablation measures.
        self._gc_floor: typing.Optional[int] = None
        self.lost_increments: int = 0

    # ------------------------------------------------------------------
    # Version lifecycle
    # ------------------------------------------------------------------

    def ensure_version(self, version: int) -> None:
        """Allocate (zeroed) counter rows for ``version`` if absent.

        A garbage-collected version is never resurrected.
        """
        if self._gc_floor is not None and version < self._gc_floor:
            return
        if version not in self._requests:
            self._requests[version] = {}
            self._req_totals[version] = 0
        if version not in self._completions:
            self._completions[version] = {}
            self._comp_totals[version] = 0

    def versions(self) -> typing.List[int]:
        """Sorted list of versions with allocated counters."""
        return sorted(set(self._requests) | set(self._completions))

    def gc_below(self, version: int) -> None:
        """Drop counters for all versions strictly below ``version``
        (Phase 4: "garbage-collects all counters associated with version
        numbers smaller than vr_new")."""
        if self._gc_floor is None or version > self._gc_floor:
            self._gc_floor = version
        for table in (self._requests, self._completions,
                      self._req_totals, self._comp_totals):
            for v in [v for v in table if v < version]:
                del table[v]

    # ------------------------------------------------------------------
    # Increments (all atomic: the simulation is single-threaded, matching
    # the paper's assumption that counter accesses are atomic and occur
    # outside local concurrency control).  These are the hottest storage
    # calls in the simulation — every subtransaction hits each table —
    # so the common "row and cell already exist" case is a single dict
    # lookup per table with no method-call or default-object overhead.
    # ------------------------------------------------------------------

    def inc_request(self, version: int, dst: str) -> None:
        """Count a subtransaction sent from this node to ``dst``."""
        # The totals entry doubles as the version-existence check: an
        # allocated version always has one, so the common case is exactly
        # two dict hits (total bump + cell bump).
        try:
            self._req_totals[version] += 1
        except KeyError:
            self._miss("request", version)
            return
        row = self._requests[version]
        try:
            row[dst] += 1
        except KeyError:
            row[dst] = 1

    def inc_completion(self, version: int, src: str) -> None:
        """Count a subtransaction invoked from ``src`` completing here."""
        try:
            self._comp_totals[version] += 1
        except KeyError:
            self._miss("completion", version)
            return
        row = self._completions[version]
        try:
            row[src] += 1
        except KeyError:
            row[src] = 1

    def _miss(self, kind: str, version: int) -> None:
        """Cold path for an increment against an unallocated version."""
        if self._gc_floor is not None and version < self._gc_floor:
            self.lost_increments += 1
            return
        raise CounterError(
            f"node {self.node_id}: {kind} counter for unallocated "
            f"version {version}"
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def requests(self, version: int) -> typing.Dict[str, int]:
        """Snapshot of ``R[version][dst]`` for this node (copies)."""
        return dict(self._requests.get(version, _EMPTY))

    def completions(self, version: int) -> typing.Dict[str, int]:
        """Snapshot of ``C[version][src]`` for this node (copies)."""
        return dict(self._completions.get(version, _EMPTY))

    def requests_view(self, version: int) -> typing.Mapping[str, int]:
        """Zero-copy *live* view of ``R[version][dst]``.

        This is the node's own row object; it mutates as further requests
        are counted.  Use it only for point-in-time reads that are consumed
        immediately (e.g. assembling a snapshot inside ``COUNTER_READ``
        handling).  Anything that outlives the current callback — in
        particular a message payload for the two-wave detector — MUST be a
        :meth:`requests` copy, or a straggler's later increment would leak
        into an already-taken wave and break the detector's soundness
        argument.
        """
        return self._requests.get(version, _EMPTY)

    def completions_view(self, version: int) -> typing.Mapping[str, int]:
        """Zero-copy *live* view of ``C[version][src]`` (see
        :meth:`requests_view` for the aliasing caveat)."""
        return self._completions.get(version, _EMPTY)

    def request_count(self, version: int, dst: str) -> int:
        return self._requests.get(version, _EMPTY).get(dst, 0)

    def completion_count(self, version: int, src: str) -> int:
        return self._completions.get(version, _EMPTY).get(src, 0)

    def request_total(self, version: int) -> int:
        """Incrementally-maintained ``sum(R[version].values())``."""
        return self._req_totals.get(version, 0)

    def completion_total(self, version: int) -> int:
        """Incrementally-maintained ``sum(C[version].values())``."""
        return self._comp_totals.get(version, 0)

    def outstanding(self, version: int) -> int:
        """``sum(R[version]) - sum(C[version])`` for this node's tables.

        Note this is a *local* difference; a node's requests complete at
        other nodes, so cluster-wide quiescence compares the *sums* of
        these totals across nodes (:func:`aggregate_quiescent`), not the
        per-node differences.
        """
        return (self._req_totals.get(version, 0)
                - self._comp_totals.get(version, 0))


def quiescent(
    request_snapshots: typing.Dict[str, typing.Dict[str, int]],
    completion_snapshots: typing.Dict[str, typing.Dict[str, int]],
) -> bool:
    """Check ``R[v][p][q] == C[v][p][q]`` for all node pairs.

    Args:
        request_snapshots: ``{p: {q: R_pq}}`` — one row per sending node.
        completion_snapshots: ``{q: {p: C_pq}}`` — one row per executing node.

    Returns:
        ``True`` iff every request has a matching completion.  Entries
        missing from either side count as zero.

    Note:
        This is a *pure* equality check.  Its soundness under asynchronous
        reads depends on the caller reading completion snapshots strictly
        before request snapshots (the two-wave rule); see
        ``repro.core.advancement.QuiescenceDetector``.
    """
    # One pass per direction instead of materializing the pair set: first
    # check every request cell against its completion mirror, then sweep the
    # completion side for cells with no (or a smaller) request mirror.
    for p, row in request_snapshots.items():
        for q, sent in row.items():
            if sent != completion_snapshots.get(q, _EMPTY).get(p, 0):
                return False
    for q, row in completion_snapshots.items():
        for p, done in row.items():
            if done != request_snapshots.get(p, _EMPTY).get(q, 0):
                return False
    return True


def aggregate_quiescent(
    request_totals: typing.Mapping[str, int],
    completion_totals: typing.Mapping[str, int],
) -> bool:
    """O(nodes) quiescence check from per-node aggregate totals.

    Args:
        request_totals: ``{p: sum_q R_pq}`` — one scalar per sending node.
        completion_totals: ``{q: sum_p C_pq}`` — one scalar per executing
            node, read strictly *before* the request totals (two-wave rule).

    Returns:
        ``True`` iff the cluster-wide request sum equals the cluster-wide
        completion sum.

    Soundness:
        Equivalent to the pairwise scan (:func:`quiescent`) under the
        two-wave read order.  Every completion increment is preceded by
        its matching request increment, so with completions read first
        each pair satisfies ``C_pq <= R_pq`` — a sum of non-negative
        slacks is zero iff every slack is zero, i.e. the scalar equality
        implies (and is implied by) pairwise equality.
    """
    return (sum(request_totals.values())
            == sum(completion_totals.values()))
