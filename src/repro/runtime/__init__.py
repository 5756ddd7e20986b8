"""The protocol-agnostic node runtime (mechanism/policy split).

Every system in this repository — the paper's 3V/NC3V protocols and the
Section-1 baselines alike — is one :class:`System` running one
:class:`ProtocolNode` per database node, specialised by a
:class:`ProtocolPlugin`.  The runtime owns the *mechanism* every protocol
shares:

* per-node message dispatch and the subtransaction arrival/finish
  callbacks;
* the local executor (:class:`~repro.sim.resources.Resource`);
* hierarchical completion: each :class:`~repro.txn.runtime.SubtxnInstance`
  counts its outstanding children and is itself the completion notice
  its parent receives;
* compensation routing along transaction-tree edges (including the
  tombstone rule for compensation that overtakes its target).

Plugins supply the *policy*: version assignment on root arrival,
admission gates, counter accounting, pre/post-execution hooks, and
protocol-specific control-message handlers.  :mod:`repro.runtime.twophase`
adds the shared two-phase-commit participant/coordinator machinery used by
both NC3V and the 2PC baseline.

Layering rule (enforced by ``tools/check_layering.py``): nothing in this
package imports any plugin module (``repro.core``, ``repro.baselines``);
plugins import the runtime, never each other.  The available protocols are
published through :data:`PROTOCOLS`, which lazily imports the aggregator
module :mod:`repro.protocols` on first use.
"""

from repro.runtime.config import NodeConfig
from repro.runtime.node import ProtocolNode
from repro.runtime.plugin import ProtocolPlugin
from repro.runtime.registry import PROTOCOLS, ProtocolEntry, ProtocolRegistry
from repro.runtime.system import System
from repro.runtime.twophase import (
    ParticipantState,
    TwoPhaseEngine,
    UndoEntry,
)

__all__ = [
    "NodeConfig",
    "PROTOCOLS",
    "ParticipantState",
    "ProtocolEntry",
    "ProtocolNode",
    "ProtocolPlugin",
    "ProtocolRegistry",
    "System",
    "TwoPhaseEngine",
    "UndoEntry",
]
