"""The generic data-recording workload (Section 6).

Data recording systems "record data by inserting new data observations into
a database, and simultaneously update summaries ... derived from the
recorded data".  This module generates exactly that shape:

* **Recording transactions** (well-behaved updates): for one *entity*
  (a patient, a phone account, a SKU), insert an observation into the
  entity's per-slot log and increment the entity's per-slot summary, on
  every replica of every slot — a multi-node transaction tree rooted at one
  of the entity's nodes.
* **Inquiry transactions** (read-only): read the entity's summary for every
  slot (the "customer enquiry" that must never see a partial visit).
* **Audit transactions** (read-only): read the summaries of many entities
  (the "bookkeeping" query).
* **Correction transactions** (non-commuting, optional): overwrite an
  entity's summaries on all replicas — the non-well-behaved updates NC3V
  exists for.

Two orthogonal placement axes — do not confuse them:

* ``span`` spreads **distinct records** (slots) of one entity across
  different nodes: slot 0 and slot 1 are *different* data items, and a
  span-2 entity has its visit recorded in two places that must be read
  together.  Span is about distribution of load and multi-node trees.
* ``replication_factor`` makes **copies** of each record: every (entity,
  slot) data item lives on ``rf`` replica nodes that must converge to the
  same value.  Replication is about availability — rf=1 (the default)
  reproduces the historic single-owner placement bit for bit, while rf>1
  fans writes out write-all-available and serves reads from any readable
  replica (see :mod:`repro.placement`).

Amount modes:

* ``"money"`` — realistic uniformly sampled charges (benchmark runs).
* ``"bitmask"`` — each recording transaction adds a distinct power of two
  to every summary it touches.  The amount doubles as a *transaction id
  embedded in the data*: any later read's value decomposes uniquely into
  the set of transactions it reflects, which gives the analysis package an
  exact fractured-read and snapshot-consistency oracle (see
  :mod:`repro.analysis.serializability`).
"""

from __future__ import annotations

import bisect
import dataclasses
import typing

from repro.errors import ReproError
from repro.placement import ReplicaMap
from repro.sim.distributions import RngRegistry
from repro.storage.values import Assign, Increment, Record
from repro.txn.spec import ReadOp, SubtxnSpec, TransactionSpec, WriteOp


def balance_key(entity: int, slot: typing.Optional[int] = None):
    """Summary data item of an entity.

    Unreplicated data keeps the historic unqualified key (one record per
    entity-slot, but the same key string on each of the entity's nodes).
    Replicated data qualifies the key with its slot so that two slots of
    one entity can host replicas on the same node without colliding.
    """
    if slot is None:
        return f"bal:{entity}"
    return f"bal:{entity}#{slot}"


def log_key(entity: int, slot: typing.Optional[int] = None):
    """Observation log data item of an entity (slot-qualified when rf>1)."""
    if slot is None:
        return f"log:{entity}"
    return f"log:{entity}#{slot}"


@dataclasses.dataclass
class RecordingConfig:
    """Shape of a data-recording workload.

    Attributes:
        nodes: Database nodes.
        entities: Number of distinct entities.
        span: Slots per entity — how many *distinct* records an entity
            spreads across different nodes.  Orthogonal to replication.
        replication_factor: Copies of every record.  ``1`` (default) is
            the historic single-owner placement, bit-identical to runs
            that predate the replication axis; ``rf > 1`` places each
            (entity, slot) record on ``rf`` distinct replica nodes.
        amount_mode: ``"money"`` or ``"bitmask"`` (see module docstring).
        charge_low/charge_high: Charge range for ``"money"`` mode.
        with_observations: Also insert :class:`Record` observations (doubles
            the write ops per node).
        audit_entities: Entities read by one audit transaction.
        abort_fraction: Fraction of recording transactions that abort at
            their last subtransaction (exercises compensation).
        zipf: Hot-key skew exponent.  ``0`` keeps the historic uniform
            entity choice (bit-identical to older runs); ``s > 0`` draws
            entity ``e`` with probability proportional to ``1/(e+1)**s``
            (entity 0 hottest) — the realistic shape for volume runs,
            where a few accounts absorb most traffic.
    """

    nodes: typing.Sequence[str]
    entities: int = 50
    span: int = 2
    amount_mode: str = "money"
    charge_low: float = 5.0
    charge_high: float = 500.0
    with_observations: bool = True
    audit_entities: int = 10
    abort_fraction: float = 0.0
    zipf: float = 0.0
    replication_factor: int = 1

    def __post_init__(self):
        if self.span < 1 or self.span > len(self.nodes):
            raise ReproError(
                f"entity span {self.span} invalid for {len(self.nodes)} nodes"
            )
        if not 1 <= self.replication_factor <= len(self.nodes):
            raise ReproError(
                f"replication_factor {self.replication_factor} invalid for "
                f"{len(self.nodes)} node(s): replicas are copies of one "
                f"record and must land on distinct nodes (use span to "
                f"spread distinct records instead)"
            )
        if self.amount_mode not in ("money", "bitmask"):
            raise ReproError(f"unknown amount mode: {self.amount_mode!r}")
        if self.zipf < 0:
            raise ReproError(f"zipf exponent must be >= 0: {self.zipf}")

    @property
    def replicated(self) -> bool:
        return self.replication_factor > 1


class RecordingWorkload:
    """Generator of recording/inquiry/audit/correction transactions."""

    def __init__(self, config: RecordingConfig, rngs: RngRegistry):
        self.config = config
        self.rngs = rngs
        self._rng = rngs.stream("workload.recording")
        #: Deterministic (entity, slot) -> ordered replica list placement.
        #: Consumes one ``randrange`` per entity — the exact draw sequence
        #: the pre-replication workload used for its single-owner map.
        self.placement_map = ReplicaMap.generate(
            config.nodes, config.entities, config.span,
            config.replication_factor, self._rng,
        )
        #: entity -> ordered list of slot *homes* (each slot's primary).
        #: At rf=1 this is the complete placement; at rf>1 each slot has
        #: ``rf - 1`` further replicas behind its home.
        self.entity_homes: typing.Dict[int, typing.List[str]] = {
            entity: self.placement_map.homes(entity)
            for entity in range(config.entities)
        }
        #: Cumulative Zipf weights over entities (None when uniform).
        self._zipf_cumulative: typing.Optional[typing.List[float]] = None
        if config.zipf > 0:
            total = 0.0
            cumulative = []
            for entity in range(config.entities):
                total += 1.0 / (entity + 1) ** config.zipf
                cumulative.append(total)
            self._zipf_cumulative = cumulative
        #: per-entity counter for bitmask amounts.
        self._entity_txn_counter: typing.Dict[int, int] = {}
        #: Whether to retain per-update ground truth.  The rolling auditor
        #: consumes entries as updates retire; with no auditor attached a
        #: streaming run sets this False so the dict cannot grow with run
        #: length.
        self.track_amounts = True
        #: (name) -> (entity, amount) for ground-truth bookkeeping.
        self.update_amounts: typing.Dict[str, typing.Tuple[int, int]] = {}
        #: correction name -> entity it overwrote.  Corrected entities no
        #: longer decompose as bitmasks, so the snapshot oracle skips them.
        self.correction_entities: typing.Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Key helpers (slot-qualified only under replication)
    # ------------------------------------------------------------------

    def _bal(self, entity: int, slot: int):
        return balance_key(entity, slot if self.config.replicated else None)

    def _log(self, entity: int, slot: int):
        return log_key(entity, slot if self.config.replicated else None)

    def replica_groups(self):
        """Iterate ``(entity, slot, balance_key, replicas)`` over every
        record — the cross-replica agreement surface the chaos harness
        checks at quiescence."""
        for entity, slot, replicas in self.placement_map.slot_items():
            yield entity, slot, self._bal(entity, slot), replicas

    # ------------------------------------------------------------------
    # Initial data
    # ------------------------------------------------------------------

    def install(self, system) -> None:
        """Load zero balances and empty logs on every replica."""
        for entity, slot, replicas in self.placement_map.slot_items():
            for node in replicas:
                system.load(node, self._bal(entity, slot), 0)
                system.load(node, self._log(entity, slot), ())

    # ------------------------------------------------------------------
    # Transaction builders
    # ------------------------------------------------------------------

    def _pick_entity(self) -> int:
        if self._zipf_cumulative is None:
            return self._rng.randrange(self.config.entities)
        target = self._rng.random() * self._zipf_cumulative[-1]
        index = bisect.bisect_right(self._zipf_cumulative, target)
        return min(index, self.config.entities - 1)

    def _amount(self, entity: int):
        if self.config.amount_mode == "bitmask":
            k = self._entity_txn_counter.get(entity, 0)
            self._entity_txn_counter[entity] = k + 1
            return 1 << k
        return round(self._rng.uniform(self.config.charge_low,
                                       self.config.charge_high), 2)

    def _write_groups(self, entity: int, make_ops) -> typing.Dict[str, list]:
        """Group one entity's per-record writes by target node.

        Iterates slots in order and each slot's replicas in placement
        order, calling ``make_ops(slot, node)`` for every copy; the
        node's ops accumulate in first-appearance order.  At rf=1 the
        replica list collapses to the slot home, reproducing the historic
        one-group-per-span-node trees exactly.
        """
        groups: typing.Dict[str, list] = {}
        for slot in range(self.config.span):
            for node in self.placement_map.replicas(entity, slot):
                groups.setdefault(node, []).extend(make_ops(slot, node))
        return groups

    def make_recording(self, index: int) -> TransactionSpec:
        """A well-behaved multi-node recording transaction.

        Under replication every replica of every slot receives its own
        copy of the commuting increment (write-all-available fan-out);
        the observation payload records the *slot* rather than the node
        so replica copies stay byte-identical.
        """
        entity = self._pick_entity()
        amount = self._amount(entity)
        name = f"rec-{index}"
        if self.track_amounts:
            self.update_amounts[name] = (entity, amount)
        abort = (
            self.config.abort_fraction > 0
            and self._rng.random() < self.config.abort_fraction
        )
        replicated = self.config.replicated

        def ops(slot: int, node: str) -> list:
            result = [WriteOp(self._bal(entity, slot), Increment(amount))]
            if self.config.with_observations:
                tag = slot if replicated else node
                result.append(
                    WriteOp(self._log(entity, slot), Record((name, tag)))
                )
            return result

        groups = self._write_groups(entity, ops)
        targets = list(groups)
        children = [
            SubtxnSpec(node=node, ops=groups[node]) for node in targets[1:]
        ]
        if abort and children:
            children[-1].abort_here = True
        root = SubtxnSpec(
            node=targets[0], ops=groups[targets[0]], children=children
        )
        if abort and not children:
            root.abort_here = True
        return TransactionSpec(name=name, root=root)

    def make_inquiry(self, index: int) -> TransactionSpec:
        """Read one entity's summary for every slot (read-one per record).

        Each slot is read at its home replica; under replication the spec
        carries the slot's other replicas as ``alternates`` so the
        placement layer can re-point the read at any readable copy.
        """
        entity = self._pick_entity()
        name = f"inq-{index}:{entity}"
        if not self.config.replicated:
            nodes = self.entity_homes[entity]
            children = [
                SubtxnSpec(node=node, ops=[ReadOp(balance_key(entity))])
                for node in nodes[1:]
            ]
            root = SubtxnSpec(
                node=nodes[0], ops=[ReadOp(balance_key(entity))],
                children=children,
            )
            return TransactionSpec(name=name, root=root)
        specs = [
            SubtxnSpec(
                node=replicas[0],
                ops=[ReadOp(self._bal(entity, slot))],
                alternates=replicas[1:],
                label=f"s{slot}",
            )
            for slot, replicas in (
                (s, self.placement_map.replicas(entity, s))
                for s in range(self.config.span)
            )
        ]
        root = specs[0]
        root.children = specs[1:]
        return TransactionSpec(name=name, root=root)

    def make_audit(self, index: int) -> TransactionSpec:
        """Read the summaries of several entities (fans out wide)."""
        count = min(self.config.audit_entities, self.config.entities)
        entities = self._rng.sample(range(self.config.entities), count)
        name = f"aud-{index}"
        if not self.config.replicated:
            # Group reads by node; root at the busiest node.
            by_node: typing.Dict[str, list] = {}
            for entity in entities:
                for node in self.entity_homes[entity]:
                    by_node.setdefault(node, []).append(
                        ReadOp(balance_key(entity))
                    )
            nodes_sorted = sorted(
                by_node, key=lambda n: len(by_node[n]), reverse=True
            )
            root_node = nodes_sorted[0]
            children = [
                SubtxnSpec(node=node, ops=by_node[node])
                for node in nodes_sorted[1:]
            ]
            root = SubtxnSpec(
                node=root_node, ops=by_node[root_node], children=children
            )
            return TransactionSpec(name=name, root=root)
        # Replicated: one read per record at its home, alternates attached,
        # so each record independently falls back to a readable replica.
        specs = []
        for entity in entities:
            for slot in range(self.config.span):
                replicas = self.placement_map.replicas(entity, slot)
                specs.append(
                    SubtxnSpec(
                        node=replicas[0],
                        ops=[ReadOp(self._bal(entity, slot))],
                        alternates=replicas[1:],
                        label=f"e{entity}s{slot}",
                    )
                )
        root = specs[0]
        root.children = specs[1:]
        return TransactionSpec(name=name, root=root)

    def make_correction(self, index: int, value: typing.Optional[int] = None
                        ) -> TransactionSpec:
        """A non-commuting overwrite of one entity's summaries (NC3V).

        Corrections write *all* replicas and do not skip unavailable ones:
        a non-commuting assign cannot be replayed out of order, so the
        two-phase engine simply blocks on a down replica until it
        recovers — the availability contrast with write-all-available
        commuting updates is the point of the comparison.
        """
        entity = self._pick_entity()
        new_value = value if value is not None else round(
            self._rng.uniform(0.0, 100.0), 2
        )

        def ops(slot: int, node: str) -> list:
            return [WriteOp(self._bal(entity, slot), Assign(new_value))]

        groups = self._write_groups(entity, ops)
        targets = list(groups)
        children = [
            SubtxnSpec(node=node, ops=groups[node]) for node in targets[1:]
        ]
        root = SubtxnSpec(
            node=targets[0], ops=groups[targets[0]], children=children
        )
        self.correction_entities[f"cor-{index}"] = entity
        return TransactionSpec(name=f"cor-{index}", root=root)

    # ------------------------------------------------------------------
    # Oracles (used by the analysis package)
    # ------------------------------------------------------------------

    def entity_of_inquiry(self, name: str) -> int:
        """Recover the entity an inquiry transaction targeted."""
        return int(name.rsplit(":", 1)[1])
