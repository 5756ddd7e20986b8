"""Runtime envelopes for in-flight subtransactions.

The static :class:`~repro.txn.spec.TransactionSpec` tree is *executed* as a
set of :class:`SubtxnInstance` envelopes flowing between nodes.  This module
also builds the per-transaction index used for completion tracking and for
routing compensating subtransactions along tree edges (Section 3.2: a
compensating subtransaction travels to the parent and children of the
aborted subtransaction, each recipient rolls back its part and forwards to
its other neighbours, so every subtransaction is compensated exactly once).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import InvalidTransactionSpec
from repro.txn.spec import SubtxnSpec, TransactionSpec, subtxn_id


class TxnIndex:
    """Navigation index over a transaction tree.

    Maps each subtransaction id to its spec, parent id, and child ids —
    everything needed to dispatch children, track completion, and route
    compensation.
    """

    def __init__(self, spec: TransactionSpec):
        self.spec = spec
        self.root_id = spec.name
        self.by_id: typing.Dict[str, SubtxnSpec] = {}
        self.parent: typing.Dict[str, typing.Optional[str]] = {}
        self.children: typing.Dict[str, typing.List[str]] = {}
        #: Per-submission node overrides (read-one replica routing).  The
        #: spec tree is shared and never mutated; re-pointing a read at a
        #: different replica is recorded here instead.  ``None`` (the
        #: common case) keeps :meth:`node_of` a plain dict lookup.
        self._overrides: typing.Optional[typing.Dict[str, str]] = None
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

    def node_of(self, sid: str) -> str:
        """Database node a subtransaction runs on (override-aware)."""
        if self._overrides is not None:
            override = self._overrides.get(sid)
            if override is not None:
                return override
        return self.by_id[sid].node

    def set_overrides(self, overrides: typing.Dict[str, str]) -> None:
        """Install per-subtransaction node overrides for this submission."""
        self._overrides = dict(overrides)

    def neighbours(self, sid: str) -> typing.List[str]:
        """Parent and children ids (the compensation routing fan-out)."""
        result = list(self.children[sid])
        parent = self.parent[sid]
        if parent is not None:
            result.append(parent)
        return result


@dataclasses.dataclass
class SubtxnInstance:
    """An in-flight subtransaction request.

    Attributes:
        txn: The full transaction spec (shared reference; never mutated).
        index: Navigation index for the transaction tree.
        sid: Id of the subtransaction to execute (root id == txn name).
        version: The transaction version number ``V(T)`` assigned at the
            root and carried by every descendant (Section 4.1).
        source_node: Node that sent this request — the ``source(T)`` whose
            completion counter row is incremented on termination.
        compensating: ``True`` for a compensating subtransaction, which
            applies the *inverses* of the target subtransaction's writes.
        comp_skip: For compensators: the neighbour subtransaction id the
            compensation came from (not forwarded back to).
        notify_key: Instance key of the spawning instance — where the
            completion notice for this instance's subtree is sent
            (``None`` for the root, which has nobody to notify).
        spec: The subtransaction's spec, ``index.by_id[sid]``.
        is_root: Whether this is the transaction's (non-compensating) root.
        instance_key: Unique id of this instance within the simulation.

    The last three are derived from ``txn`` / ``index`` / ``sid`` /
    ``compensating``, none of which changes after construction, and are
    read many times per subtransaction — so they are computed once here.
    """

    txn: TransactionSpec
    index: TxnIndex
    sid: str
    version: typing.Optional[int]
    source_node: str
    compensating: bool = False
    comp_skip: typing.Optional[str] = None
    notify_key: typing.Optional[typing.Tuple[str, str, bool]] = None
    spec: SubtxnSpec = dataclasses.field(init=False, repr=False,
                                         compare=False)
    is_root: bool = dataclasses.field(init=False, repr=False, compare=False)
    instance_key: typing.Tuple[str, str, bool] = dataclasses.field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index, sid, compensating = self.index, self.sid, self.compensating
        self.spec = index.by_id[sid]
        self.is_root = not compensating and sid == index.root_id
        self.instance_key = (self.txn.name, sid, compensating)

    def child_instance(self, child_sid: str, own_node: str) -> "SubtxnInstance":
        """Envelope for dispatching one child subtransaction."""
        return SubtxnInstance(
            txn=self.txn,
            index=self.index,
            sid=child_sid,
            version=self.version,
            source_node=own_node,
        )

    def compensator(self, target_sid: str, own_node: str) -> "SubtxnInstance":
        """Envelope for a compensating subtransaction aimed at ``target_sid``,
        recording that it came from this instance's subtransaction."""
        return SubtxnInstance(
            txn=self.txn,
            index=self.index,
            sid=target_sid,
            version=self.version,
            source_node=own_node,
            compensating=True,
            comp_skip=self.sid,
        )


@dataclasses.dataclass(frozen=True)
class CompletionNotice:
    """Child -> parent notification that a whole subtree has completed.

    Hierarchical completion matches the paper's Table 1: a subtransaction's
    completion counter is incremented only once all its descendants have
    completed, and the notice then flows to its own parent.
    """

    txn_name: str
    parent_key: typing.Tuple[str, str, bool]
    child_key: typing.Tuple[str, str, bool]


@dataclasses.dataclass
class CompletionTracker:
    """Per-subtransaction-instance bookkeeping for hierarchical completion."""

    instance: SubtxnInstance
    outstanding_children: int = 0
    executed: bool = False

    @property
    def complete(self) -> bool:
        return self.executed and self.outstanding_children == 0
