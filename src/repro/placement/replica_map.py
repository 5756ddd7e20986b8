"""Seeded, deterministic replica placement.

A :class:`ReplicaMap` assigns every (entity, slot) record an ordered list
of ``replication_factor`` distinct replica nodes.  Placement is a ring
walk: each entity draws one random start node, slot ``s`` of the entity
is homed at ``start + s`` on the ring, and the slot's replicas are the
``rf`` consecutive nodes beginning at its home.  Two properties fall out
by construction:

* **rf=1 is today's map.**  With one replica per slot, ``replicas(e, s)``
  collapses to the single home node ``nodes[(start + s) % n]`` — exactly
  the ``entity_homes`` assignment the recording workload has always
  produced, from the identical RNG draw (one ``randrange`` per entity).
  Turning the replication axis on at its default perturbs nothing.

* **Distinctness.**  Ring-consecutive replicas are distinct as long as
  ``rf <= len(nodes)``, which :meth:`generate` validates up front;
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

    __slots__ = ("nodes", "span", "replication_factor", "_starts")

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
        self.nodes = tuple(nodes)
        self.span = span
        self.replication_factor = replication_factor
        self._starts = tuple(starts)

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
        return len(self._starts)

    def home(self, entity: int, slot: int = 0) -> str:
        """The slot's first replica (its primary)."""
        return self.nodes[(self._starts[entity] + slot) % len(self.nodes)]

    def homes(self, entity: int) -> typing.List[str]:
        """Primary node of every slot of ``entity`` (the rf=1 owner list)."""
        return [self.home(entity, slot) for slot in range(self.span)]

    def replicas(self, entity: int, slot: int) -> typing.Tuple[str, ...]:
        """Ordered replica list of one record: ``rf`` consecutive nodes."""
        start = self._starts[entity] + slot
        count = len(self.nodes)
        return tuple(
            self.nodes[(start + k) % count]
            for k in range(self.replication_factor)
        )

    def slot_items(self) -> typing.Iterator[typing.Tuple[int, int, tuple]]:
        """Iterate ``(entity, slot, replicas)`` over every record."""
        for entity in range(len(self._starts)):
            for slot in range(self.span):
                yield entity, slot, self.replicas(entity, slot)

    def load_per_node(self) -> typing.Dict[str, int]:
        """Number of record copies hosted by each node (balance metric)."""
        load = {node: 0 for node in self.nodes}
        for _, _, replicas in self.slot_items():
            for node in replicas:
                load[node] += 1
        return load
