"""Transaction tree specifications (the paper's Section 3 model).

A transaction is "first submitted to one server, which performs its
subtransaction and then sends subtransactions down to other servers ...
possibly causing the transaction to visit some servers multiple times".  We
capture that as a static tree of :class:`SubtxnSpec` nodes, each naming the
database node it runs on, the operations it performs there, and its child
subtransactions.  The workload generators build these trees; the protocol
implementations execute them.  :class:`TxnIndex` maps a tree's
subtransaction ids for the few paths that need the whole tree at once.

Transaction classes (Section 3.1):

* ``read_only`` — member of the read set R (no write operations anywhere);
* ``well_behaved`` — member of the update set U with all-commuting
  operations (the 3V fast path);
* non-well-behaved — at least one non-commuting operation; only the NC3V
  protocol accepts these.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import InvalidTransactionSpec
from repro.storage.values import Operation
from repro.txn.history import TxnKind


@dataclasses.dataclass(frozen=True, slots=True)
class ReadOp:
    """Read one data item (at the transaction's version, per the protocol)."""

    key: typing.Hashable


@dataclasses.dataclass(frozen=True, slots=True)
class WriteOp:
    """Apply a :class:`~repro.storage.values.Operation` to one data item."""

    key: typing.Hashable
    operation: Operation


OpType = typing.Union[ReadOp, WriteOp]


@dataclasses.dataclass(slots=True)
class SubtxnSpec:
    """One subtransaction: a node, its local operations, its children.

    Attributes:
        node: Identifier of the database node this subtransaction runs on.
        ops: Local operations, executed in order under local concurrency
            control.
        children: Subtransactions dispatched to other nodes after the local
            operations complete (and, per Section 4.1 step 5, after the
            corresponding request counters are incremented).
        label: Optional stable suffix used to build human-readable
            subtransaction ids (Table 1 uses ``i``, ``iq``, ``iqp``).
        abort_here: If ``True``, this subtransaction aborts after executing
            its local operations, triggering compensation of the whole tree
            (Section 3.2).
        alternates: Other nodes holding a readable copy of this
            subtransaction's data (read-one replication).  At submit time
            the placement layer may re-point a read-only subtransaction to
            the first *readable* alternate when ``node`` is down or
            unrefreshed; empty for writes and for unreplicated data.
    """

    node: str
    ops: typing.List[OpType] = dataclasses.field(default_factory=list)
    children: typing.List["SubtxnSpec"] = dataclasses.field(default_factory=list)
    label: str = ""
    abort_here: bool = False
    alternates: typing.Tuple[str, ...] = ()

    def walk(self) -> typing.Iterator["SubtxnSpec"]:
        """Yield this spec and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclasses.dataclass
class TransactionSpec:
    """A complete transaction tree plus its classification.

    Attributes:
        name: Unique transaction identifier (also used as the lock owner id).
        root: The root subtransaction.
        priority_hint: Optional tie-break information for schedulers (unused
            by the protocols themselves).
        is_read_only: True when no subtransaction performs a write.
        is_well_behaved: True when every write operation commutes
            (Definition 3.1).  Read-only transactions are trivially
            well-behaved ("the read set R is well-behaved by definition")
            but are classified separately.
        wants_abort: True when some subtransaction is scripted to abort.
        kind: The :class:`~repro.txn.history.TxnKind` the two flags above
            put the transaction in (read, update or non-commuting).
    """

    name: str
    root: SubtxnSpec
    priority_hint: float = 0.0

    def __post_init__(self):
        self.validate()

    @classmethod
    def classified(cls, name: str, root: SubtxnSpec, *, read_only: bool,
                   well_behaved: bool, wants_abort: bool = False
                   ) -> "TransactionSpec":
        """A spec whose builder already knows the tree's class.

        For generators that build every tree of a class the same way (the
        recording workload): the tree is well formed by construction and
        its classification is stated, not derived, so :meth:`validate`'s
        walk is skipped.  Hand-built trees go through the constructor.
        """
        spec = cls.__new__(cls)
        spec.name = name
        spec.root = root
        spec.priority_hint = 0.0
        spec._classify(read_only, well_behaved, wants_abort)
        spec._nodes = None
        return spec

    # ------------------------------------------------------------------
    # Classification
    #
    # The classification of a transaction is consulted on every protocol
    # decision (submit gate, version stamping, compensation), so it is
    # computed once during :meth:`validate` — a single walk of the tree —
    # and stored as plain attributes (``is_read_only``, ``is_well_behaved``,
    # ``wants_abort``, ``kind``), read without a call.  Specs are treated as
    # immutable after construction (the workload builders finish mutating
    # ``abort_here`` before wrapping the tree in a TransactionSpec); call
    # :meth:`validate` again to refresh them if a tree is ever edited in
    # place.  A :meth:`classified` spec states its class instead, and
    # walks for its node set only when asked.
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> typing.Set[str]:
        """All database nodes the transaction touches."""
        if self._nodes is None:
            # Filled in validate()'s order: the lock-release fan-out sends
            # in this set's order.
            nodes = self._nodes = set()
            stack = [self.root]
            while stack:
                spec = stack.pop()
                nodes.add(spec.node)
                stack.extend(spec.children)
        return set(self._nodes)

    def subtxn_count(self) -> int:
        return sum(1 for _ in self.root.walk())

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Reject malformed trees early, with a precise complaint.

        Also (re)computes the classification — one iterative walk instead
        of one recursive generator sweep per classification query.
        """
        if not self.name:
            raise InvalidTransactionSpec("transaction name must be non-empty")
        read_only = True
        well_behaved = True
        wants_abort = False
        labelled = False
        nodes: typing.Set[str] = set()
        seen: typing.Set[int] = set()
        seen_add = seen.add
        stack = [self.root]
        pop = stack.pop
        while stack:
            spec = pop()
            if id(spec) in seen:
                raise InvalidTransactionSpec(
                    f"{self.name}: subtransaction tree contains a cycle or "
                    "shared node"
                )
            seen_add(id(spec))
            if not spec.node:
                raise InvalidTransactionSpec(
                    f"{self.name}: subtransaction with empty node id"
                )
            nodes.add(spec.node)
            if spec.abort_here:
                wants_abort = True
            if spec.label:
                labelled = True
            for op in spec.ops:
                if isinstance(op, WriteOp):
                    read_only = False
                    if not op.operation.commutes:
                        well_behaved = False
                elif not isinstance(op, ReadOp):
                    raise InvalidTransactionSpec(
                        f"{self.name}: unknown operation type "
                        f"{type(op).__name__}"
                    )
            stack.extend(spec.children)
        if read_only and wants_abort:
            raise InvalidTransactionSpec(
                f"{self.name}: read-only transactions cannot abort "
                "(they have nothing to compensate)"
            )
        if labelled:
            # Positional ids cannot collide; a label can repeat a sibling's
            # label or another id ("x.0" beside "x"'s first child).  The
            # index rejects a repeated id as it builds.
            TxnIndex(self)
        self._classify(read_only, well_behaved, wants_abort)
        self._nodes = nodes

    def _classify(self, read_only: bool, well_behaved: bool,
                  wants_abort: bool) -> None:
        self.is_read_only = read_only
        self.is_well_behaved = well_behaved
        self.wants_abort = wants_abort
        self.kind = (
            TxnKind.READ if read_only
            else TxnKind.UPDATE if well_behaved
            else TxnKind.NONCOMMUTING
        )


def subtxn_id(parent_id: str, child: SubtxnSpec, index: int) -> str:
    """Build the id of a child subtransaction.

    Uses the child's explicit ``label`` when present (so the paper's example
    produces ids ``i``, ``iq``, ``iqp``), otherwise ``parent.index``.
    """
    if child.label:
        return parent_id + child.label
    return f"{parent_id}.{index}"


class TxnIndex:
    """Navigation index over a transaction tree.

    Maps each subtransaction id to its spec, parent id, and child ids.
    Execution does not need it (an envelope enumerates its children from
    its own spec); it is built where a whole-tree view is: compensation
    routing, read re-routing, and the repeated-id check of a labelled
    tree.
    """

    def __init__(self, spec: TransactionSpec):
        self.spec = spec
        self.root_id = spec.name
        self.by_id: typing.Dict[str, SubtxnSpec] = {}
        self.parent: typing.Dict[str, typing.Optional[str]] = {}
        self.children: typing.Dict[str, typing.List[str]] = {}
        self._build(spec.root, self.root_id, None)

    def _build(self, node: SubtxnSpec, node_id: str,
               parent_id: typing.Optional[str]) -> None:
        if node_id in self.by_id:
            raise InvalidTransactionSpec(
                f"{self.spec.name}: duplicate subtransaction id {node_id!r} "
                "(give colliding children distinct labels)"
            )
        self.by_id[node_id] = node
        self.parent[node_id] = parent_id
        self.children[node_id] = []
        for index, child in enumerate(node.children):
            child_id = subtxn_id(node_id, child, index)
            self.children[node_id].append(child_id)
            self._build(child, child_id, node_id)

    def neighbours(self, sid: str) -> typing.List[str]:
        """Parent and children ids (the compensation routing fan-out)."""
        result = list(self.children[sid])
        parent = self.parent[sid]
        if parent is not None:
            result.append(parent)
        return result
