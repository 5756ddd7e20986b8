"""Seeded, deterministic replica placement, laid out once.

A :class:`ReplicaMap` assigns every (entity, slot) record an ordered list
of ``replication_factor`` distinct replica nodes.  Placement is a ring
walk: each entity draws one random start node, slot ``s`` of the entity
is homed at ``start + s`` on the ring, and the slot's replicas are the
``rf`` consecutive nodes beginning at its home.  The walk runs once, at
construction: the map keeps every record's replica tuple and every
entity's write fan-out, and every lookup (``replicas``, ``homes``,
``fanout``, ``slot_items``) reads that layout.  Two properties fall out
by construction:

* **rf=1 is today's map.**  With one replica per slot, ``replicas(e, s)``
  collapses to the single home node ``nodes[(start + s) % n]`` — exactly
  the ``entity_homes`` assignment the recording workload has always
  produced, from the identical RNG draw (one ``randrange`` per entity).
  Turning the replication axis on at its default perturbs nothing.

* **Distinctness.**  Ring-consecutive replicas are distinct as long as
  ``rf <= len(nodes)``, which the constructor validates up front;
  replicas are full *copies* of one record and copies on the same node
  would be one copy.
"""

from __future__ import annotations

import typing

from repro.errors import SimulationError


class ReplicaMap:
    """Deterministic map from (entity, slot) to an ordered replica list.

    Args:
        nodes: Cluster node ids, in ring order.
        starts: Per-entity ring start offsets (one per entity).
        span: Number of *distinct* records (slots) per entity.  Span
            spreads different records across nodes; it is orthogonal to
            replication, which makes copies of each record.
        replication_factor: Copies of every record (``1`` = single-owner).
    """

    __slots__ = ("nodes", "span", "replication_factor", "_layout", "_fanout")

    def __init__(
        self,
        nodes: typing.Sequence[str],
        starts: typing.Sequence[int],
        span: int,
        replication_factor: int,
    ):
        if not nodes:
            raise SimulationError("a replica map needs at least one node")
        if span < 1:
            raise SimulationError(f"span must be >= 1, got {span!r}")
        if not 1 <= replication_factor <= len(nodes):
            raise SimulationError(
                f"replication_factor must satisfy 1 <= rf <= len(nodes): "
                f"got rf={replication_factor!r} with {len(nodes)} node(s). "
                f"Replicas are full copies of one record and must land on "
                f"distinct nodes (span spreads distinct records instead)."
            )
        self.nodes = ring = tuple(nodes)
        self.span = span
        self.replication_factor = replication_factor
        count = len(ring)
        wrapped = ring + ring
        # A record's replicas depend only on its home, and an entity's
        # layout only on its start, so entities that drew the same start
        # share one layout.  Per start: every slot's replica tuple, home
        # first, and the fan-out, one ``(node, slots)`` group per replica
        # node, nodes in first appearance over the slots in order.
        by_home = [wrapped[home:home + replication_factor]
                   for home in range(count)]
        slots_by_start = []
        fanout_by_start = []
        for start in range(count):
            slots = tuple(by_home[(start + slot) % count]
                          for slot in range(span))
            groups: typing.Dict[str, list] = {}
            for slot, replicas in enumerate(slots):
                for node in replicas:
                    groups.setdefault(node, []).append(slot)
            slots_by_start.append(slots)
            fanout_by_start.append(tuple(
                (node, tuple(held)) for node, held in groups.items()))
        self._layout = [slots_by_start[start % count] for start in starts]
        self._fanout = [fanout_by_start[start % count] for start in starts]

    @classmethod
    def generate(
        cls,
        nodes: typing.Sequence[str],
        entities: int,
        span: int,
        replication_factor: int,
        rng,
    ) -> "ReplicaMap":
        """Draw a map from ``rng``: one ``randrange(len(nodes))`` per entity.

        The draw sequence is exactly the one the recording workload used
        for its single-owner ``entity_homes`` map, so generating a map at
        any ``replication_factor`` leaves every subsequent draw from the
        same stream (entity picks, amounts, audit samples) unchanged.
        """
        count = len(nodes)
        starts = [rng.randrange(count) for _ in range(entities)]
        return cls(nodes, starts, span, replication_factor)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    @property
    def entities(self) -> int:
        return len(self._layout)

    def homes(self, entity: int) -> typing.List[str]:
        """Primary node of every slot of ``entity`` (the rf=1 owner list)."""
        return [replicas[0] for replicas in self._layout[entity]]

    def replicas(self, entity: int, slot: int) -> typing.Tuple[str, ...]:
        """Ordered replica list of one record: ``rf`` consecutive nodes."""
        return self._layout[entity][slot]

    def fanout(self, entity: int) -> typing.Tuple[typing.Tuple[str, tuple], ...]:
        """Where a write to every record of ``entity`` goes: one
        ``(node, slots)`` group per replica node holding a copy, nodes in
        first appearance over the slots in order and each slot's
        replicas in placement order."""
        return self._fanout[entity]

    def slot_items(self) -> typing.Iterator[typing.Tuple[int, int, tuple]]:
        """Iterate ``(entity, slot, replicas)`` over every record."""
        for entity, slots in enumerate(self._layout):
            for slot, replicas in enumerate(slots):
                yield entity, slot, replicas

    def load_per_node(self) -> typing.Dict[str, int]:
        """Number of record copies hosted by each node (balance metric)."""
        load = {node: 0 for node in self.nodes}
        for _, _, replicas in self.slot_items():
            for node in replicas:
                load[node] += 1
        return load
