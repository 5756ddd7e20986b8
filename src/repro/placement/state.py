"""Runtime placement state: read-one routing and write-all-available skips.

``PlacementState`` is what the runtime consults when replication is on
(``replication_factor > 1``); a system built without one behaves exactly
as before, and the hot paths guard every hook behind a single ``None``
check.  Three duties:

* **Read-one routing.**  At submit time a read-only transaction's
  subtransactions are re-pointed from unreadable replicas to the first
  readable alternate (:meth:`route_reads` returns the submission's node
  overrides).
  A read that still lands on an unreadable node — queued before the
  crash, or with no readable alternate — waits on the node's refresh
  gate instead of observing stale state.

* **Write-all-available.**  Write fan-out to a down or unrefreshed
  replica is skipped entirely — no request accounting, no completion
  owed, so aggregate quiescence stays sound — and the skipped operations
  are ledgered for the refresh protocol (:meth:`record_skip`).  A
  compensation that overtakes a skipped original cancels the ledger
  entry: the pair annihilates (:meth:`cancel_skip`).

* **Recovery-readability.**  Crash/recover transitions and the
  ``REFRESH_*`` message handlers are delegated to
  :class:`~repro.placement.refresh.RefreshProtocol`.
"""

from __future__ import annotations

import typing

from repro.errors import SimulationError
from repro.net.message import MessageKind
from repro.placement.refresh import (
    MissedOpLedger, MissedSubtxn, RefreshProtocol)


class PlacementState:
    """Replication runtime state for one system (pass via ``placement=``)."""

    #: Run counters: summary field -> attribute (``System.counters``).
    COUNTERS = {name: name for name in (
        "reads_rerouted", "reads_gated", "writes_skipped",
        "unreadable_reads_served")}

    def __init__(self, refresh_delay: float = 2.0):
        if refresh_delay <= 0:
            raise SimulationError(
                f"refresh_delay must be > 0, got {refresh_delay!r}"
            )
        self.ledger = MissedOpLedger()
        self.refresh = RefreshProtocol(self.ledger, refresh_delay)
        self.system = None
        self.reads_rerouted = 0
        self.reads_gated = 0
        #: Child dispatches skipped because the target replica was
        #: unavailable (each may ledger several operations).
        self.writes_skipped = 0
        self.ops_ledgered = 0
        self.ops_cancelled = 0
        #: Invariant counter — must stay 0: reads executed at a node that
        #: was still unrefreshed (the chaos harness scores this).
        self.unreadable_reads_served = 0

    @property
    def refresh_delay(self) -> float:
        return self.refresh.refresh_delay

    def bind(self, system) -> None:
        self.system = system
        self.refresh.bind(system)

    # ------------------------------------------------------------------
    # Read-one routing
    # ------------------------------------------------------------------

    def readable(self, node_id: str) -> bool:
        return self.refresh.readable(node_id)

    def route_reads(self, by_id) -> typing.Optional[typing.Dict[str, str]]:
        """Node overrides re-pointing a read-only tree's subtxns (``by_id``:
        subtransaction id -> spec) away from unreadable nodes, or ``None``
        when none needs moving."""
        overrides = {}
        for sid, spec in by_id.items():
            if self.readable(spec.node):
                continue
            for alternate in spec.alternates:
                if self.readable(alternate):
                    overrides[sid] = alternate
                    break
        if not overrides:
            return None
        self.reads_rerouted += len(overrides)
        return overrides

    def read_gate(self, node_id: str):
        """Refresh gate for a read arriving at an unreadable node."""
        gate = self.refresh.read_gate(node_id)
        if gate is not None:
            self.reads_gated += 1
        return gate

    def read_served(self, node_id: str) -> None:
        if node_id in self.refresh.unrefreshed:
            self.unreadable_reads_served += 1

    # ------------------------------------------------------------------
    # Write-all-available
    # ------------------------------------------------------------------

    def should_skip_write(self, target: str, instance) -> bool:
        """Skip fan-out of an original write to an unavailable replica."""
        if instance.compensating or instance.txn.is_read_only:
            return False
        return (target in self.system.down_nodes
                or target in self.refresh.unrefreshed)

    def record_skip(
        self,
        target: str,
        txn_name: str,
        sid: str,
        version: int,
        write_ops: typing.Sequence[typing.Any],
        compensable: bool,
    ) -> None:
        """Ledger one skipped child dispatch: its write ops (each with a
        ``key`` and an ``operation``), in order, as one entry
        (``compensable``: the transaction can abort)."""
        self.writes_skipped += 1
        if write_ops:
            self.ledger.record(target, MissedSubtxn(
                txn_name, sid, version, write_ops, compensable))
            self.ops_ledgered += len(write_ops)

    def cancel_skip(self, target: str, txn_name: str, sid: str) -> None:
        """Compensation overtook a skipped original: annihilate the pair."""
        self.ops_cancelled += self.ledger.cancel(target, txn_name, sid)

    # ------------------------------------------------------------------
    # Crash / recovery / refresh plumbing
    # ------------------------------------------------------------------

    def on_recover(self, node_id: str) -> None:
        self.refresh.on_recover(node_id)

    def handle_message(self, node, message) -> bool:
        """Route ``REFRESH_*`` traffic; returns True when consumed."""
        kind = message.kind
        if kind == MessageKind.REFRESH_REQUEST:
            self.refresh.handle_request(node, message)
            return True
        if kind == MessageKind.REFRESH_REPLY:
            self.refresh.handle_reply(node, message)
            return True
        return False
