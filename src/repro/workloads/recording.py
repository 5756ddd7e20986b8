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

Both axes are laid out once, when the workload is built: the replica map
holds every record's replica tuple and every entity's write fan-out (one
``(node, slots)`` group per replica node), and the workload holds each
entity's record keys.  A builder then only looks these up: it formats no
key and walks no placement per transaction.

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
from repro.parameters import check_parameters
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
        check_parameters({"entities": self.entities, "zipf": self.zipf,
                          "abort_fraction": self.abort_fraction,
                          "amount_mode": self.amount_mode})
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

    @property
    def replicated(self) -> bool:
        return self.replication_factor > 1


def _flat_tree(name: str, subtxns: typing.List[SubtxnSpec], **classification
               ) -> TransactionSpec:
    """Root the first subtransaction, the rest as its children.

    Every tree the builders make has this shape and a class they know
    (``classification`` is :meth:`TransactionSpec.classified`'s), so none
    of them goes through ``validate()``.
    """
    root = subtxns[0]
    root.children = subtxns[1:]
    return TransactionSpec.classified(name, root, **classification)


class RecordingWorkload:
    """Generator of recording/inquiry/audit/correction transactions."""

    def __init__(self, config: RecordingConfig, rngs: RngRegistry,
                 track_amounts: bool = True):
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
        # ``_records[entity]`` holds one ``(slot, balance key, log key)``
        # per slot: slot-qualified under replication, the one historic
        # key pair for every slot without.
        self._replicated = replicated = config.replicated
        slots = range(config.span)
        self._records: typing.List[typing.List[tuple]] = []
        for entity in range(config.entities):
            if replicated:
                self._records.append([
                    (slot, balance_key(entity, slot), log_key(entity, slot))
                    for slot in slots])
            else:
                balance, log = balance_key(entity), log_key(entity)
                self._records.append([(slot, balance, log) for slot in slots])
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
        #: Whether to retain per-update ground truth.  The experiment
        #: runner sets it only when a reader exists (the snapshot oracle,
        #: the chaos harness's mask check); the rolling auditor consumes
        #: entries as updates retire.
        self.track_amounts = track_amounts
        #: (name) -> (entity, amount) for ground-truth bookkeeping.
        self.update_amounts: typing.Dict[str, typing.Tuple[int, int]] = {}
        #: correction name -> entity it overwrote.  Corrected entities no
        #: longer decompose as bitmasks, so the snapshot oracle skips them.
        self.correction_entities: typing.Dict[str, int] = {}

    def replica_groups(self):
        """Iterate ``(entity, slot, balance_key, replicas)`` over every
        record — the cross-replica agreement surface the chaos harness
        checks at quiescence."""
        for entity, slot, replicas in self.placement_map.slot_items():
            yield entity, slot, self._records[entity][slot][1], replicas

    # ------------------------------------------------------------------
    # Initial data
    # ------------------------------------------------------------------

    def install(self, system) -> None:
        """Load zero balances and empty logs on every replica."""
        for entity, slot, replicas in self.placement_map.slot_items():
            _, balance, log = self._records[entity][slot]
            for node in replicas:
                system.load(node, balance, 0)
                system.load(node, log, ())

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

    def _copies(self, entity: int, slot_ops) -> typing.List[SubtxnSpec]:
        """One subtransaction per replica node holding a record of
        ``entity`` (rf > 1): ``slot_ops[slot]`` goes to every replica of
        the slot, in the entity's laid-out fan-out order, so a node's ops
        accumulate in slot order.  A node holding one slot shares that
        slot's op list with the slot's other replicas."""
        subtxns = []
        for node, slots in self.placement_map.fanout(entity):
            ops = slot_ops[slots[0]]
            for slot in slots[1:]:
                ops = ops + slot_ops[slot]
            subtxns.append(SubtxnSpec(node, ops))
        return subtxns

    def _replica_read(self, entity: int, slot: int, label: str) -> SubtxnSpec:
        """Read one record at its home, its other replicas as alternates."""
        nodes = self.placement_map.replicas(entity, slot)
        return SubtxnSpec(nodes[0], [ReadOp(self._records[entity][slot][1])],
                          label=label, alternates=nodes[1:])

    # Each ``draw_*`` makes every random draw of one transaction and
    # returns them; its ``build_*`` draws nothing, so a caller may build
    # long after drawing (:func:`repro.workloads.arrivals.drive`), and
    # ``make_*`` is the two at once.

    def draw_recording(self) -> typing.Tuple[int, typing.Any, bool]:
        """A recording transaction's ``(entity, amount, abort)``."""
        entity = self._pick_entity()
        amount = self._amount(entity)
        abort = (
            self.config.abort_fraction > 0
            and self._rng.random() < self.config.abort_fraction
        )
        return entity, amount, abort

    def build_recording(self, index: int, drawn) -> TransactionSpec:
        """A well-behaved multi-node recording transaction.

        Under replication every replica of every slot receives its own
        copy of the commuting increment (write-all-available fan-out);
        the observation payload records the *slot* rather than the node
        so replica copies stay byte-identical.
        """
        entity, amount, abort = drawn
        name = f"rec-{index}"
        if self.track_amounts:
            self.update_amounts[name] = (entity, amount)
        increment = Increment(amount)
        observe = self.config.with_observations
        records = self._records[entity]
        if self._replicated:
            subtxns = self._copies(entity, [
                [WriteOp(balance, increment),
                 WriteOp(log, Record((name, slot)))]
                if observe else [WriteOp(balance, increment)]
                for slot, balance, log in records
            ])
        else:
            _, balance, log = records[0]
            write = WriteOp(balance, increment)
            subtxns = [
                SubtxnSpec(node, [write, WriteOp(log, Record((name, node)))]
                           if observe else [write])
                for node in self.entity_homes[entity]
            ]
        if abort:
            subtxns[-1].abort_here = True
        return _flat_tree(name, subtxns, read_only=False, well_behaved=True,
                          wants_abort=abort)

    def make_recording(self, index: int) -> TransactionSpec:
        """Draw and build one recording transaction."""
        return self.build_recording(index, self.draw_recording())

    def draw_inquiry(self) -> int:
        """An inquiry's entity."""
        return self._pick_entity()

    def build_inquiry(self, index: int, entity: int) -> TransactionSpec:
        """Read one entity's summary for every slot (read-one per record).

        Each slot is read at its home replica; under replication the spec
        carries the slot's other replicas as ``alternates`` so the
        placement layer can re-point the read at any readable copy.
        """
        name = f"inq-{index}:{entity}"
        if self._replicated:
            subtxns = [self._replica_read(entity, slot, f"s{slot}")
                       for slot, _, _ in self._records[entity]]
        else:
            read = ReadOp(self._records[entity][0][1])
            subtxns = [
                SubtxnSpec(node, [read]) for node in self.entity_homes[entity]
            ]
        return _flat_tree(name, subtxns, read_only=True, well_behaved=True)

    def make_inquiry(self, index: int) -> TransactionSpec:
        """Draw and build one inquiry."""
        return self.build_inquiry(index, self.draw_inquiry())

    def draw_audit(self) -> typing.Tuple[int, ...]:
        """An audit's entities, in sampled order."""
        count = min(self.config.audit_entities, self.config.entities)
        return tuple(self._rng.sample(range(self.config.entities), count))

    def build_audit(self, index: int, entities) -> TransactionSpec:
        """Read the summaries of several entities (fans out wide)."""
        name = f"aud-{index}"
        if self._replicated:
            # One read per record at its home, alternates attached, so each
            # record independently falls back to a readable replica.
            subtxns = [self._replica_read(entity, slot, f"e{entity}s{slot}")
                       for entity in entities
                       for slot, _, _ in self._records[entity]]
        else:
            # Group reads by node; root at the busiest node.
            by_node: typing.Dict[str, list] = {}
            for entity in entities:
                read = ReadOp(self._records[entity][0][1])
                for node in self.entity_homes[entity]:
                    by_node.setdefault(node, []).append(read)
            subtxns = [
                SubtxnSpec(node, by_node[node])
                for node in sorted(
                    by_node, key=lambda n: len(by_node[n]), reverse=True
                )
            ]
        return _flat_tree(name, subtxns, read_only=True, well_behaved=True)

    def make_audit(self, index: int) -> TransactionSpec:
        """Draw and build one audit."""
        return self.build_audit(index, self.draw_audit())

    def draw_correction(self, value: typing.Optional[int] = None
                        ) -> typing.Tuple[int, typing.Any]:
        """A correction's ``(entity, new value)``; ``value`` fixes the
        value instead of drawing it."""
        entity = self._pick_entity()
        new_value = value if value is not None else round(
            self._rng.uniform(0.0, 100.0), 2
        )
        return entity, new_value

    def build_correction(self, index: int, drawn) -> TransactionSpec:
        """A non-commuting overwrite of one entity's summaries (NC3V).

        Corrections write *all* replicas and do not skip unavailable ones:
        a non-commuting assign cannot be replayed out of order, so the
        two-phase engine simply blocks on a down replica until it
        recovers — the availability contrast with write-all-available
        commuting updates is the point of the comparison.
        """
        entity, new_value = drawn
        assign = Assign(new_value)
        records = self._records[entity]
        if self._replicated:
            subtxns = self._copies(entity, [
                [WriteOp(balance, assign)] for _, balance, _ in records
            ])
        else:
            write = WriteOp(records[0][1], assign)
            subtxns = [
                SubtxnSpec(node, [write]) for node in self.entity_homes[entity]
            ]
        name = f"cor-{index}"
        self.correction_entities[name] = entity
        return _flat_tree(name, subtxns, read_only=False, well_behaved=False)

    def make_correction(self, index: int, value: typing.Optional[int] = None
                        ) -> TransactionSpec:
        """Draw and build one correction."""
        return self.build_correction(index, self.draw_correction(value))
