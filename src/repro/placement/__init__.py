"""Replica placement: deterministic key->replica-list maps plus the
runtime state for read-one/write-all-available replication.

``ReplicaMap`` is pure data — a seeded, deterministic assignment of every
(entity, slot) record to an ordered list of replica nodes, laid out once
when the map is built, with ``replication_factor=1`` reproducing the
single-owner maps the workloads used before replication existed, bit for
bit.  ``PlacementState`` is the runtime side: it decides which replica
serves a read, skips write fan-out to unavailable replicas (ledgering
each skipped subtransaction's write operations), and drives the
recovery-readability refresh protocol in :mod:`repro.placement.refresh`.

Layering: this package may import only ``repro.errors``, ``repro.sim``,
``repro.storage``, and ``repro.net`` (enforced by
``tools/check_layering.py`` rule 5).  The runtime imports *down* into
placement; placement never learns about protocols or workloads.
"""

from repro.placement.refresh import MissedOpLedger, RefreshProtocol
from repro.placement.replica_map import ReplicaMap
from repro.placement.state import PlacementState

__all__ = [
    "MissedOpLedger",
    "PlacementState",
    "RefreshProtocol",
    "ReplicaMap",
]
