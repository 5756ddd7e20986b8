"""The paper's contribution: the 3V protocol, NC3V, and version advancement."""

from repro.core.advancement import (
    COORDINATOR_ID,
    ActivePollDetector,
    AdvancementCoordinator,
    DETECTORS,
    InterleavedDetector,
    TwoWaveDetector,
)
from repro.core.invariants import (
    InvariantMonitor,
    check_all,
    check_version_agreement,
    check_version_bounds,
    check_version_counts,
)
from repro.core.nc3v import NC3VManager
from repro.core.node import NodeConfig, ThreeVNode
from repro.core.policy import (
    AdvancementPolicy,
    CountPolicy,
    DivergencePolicy,
    ManualPolicy,
    PeriodicPolicy,
    TransactionTriggerPolicy,
)
from repro.core.system import ThreeVSystem

__all__ = [
    "COORDINATOR_ID",
    "ActivePollDetector",
    "AdvancementCoordinator",
    "AdvancementPolicy",
    "CountPolicy",
    "DETECTORS",
    "DivergencePolicy",
    "InterleavedDetector",
    "InvariantMonitor",
    "ManualPolicy",
    "NC3VManager",
    "NodeConfig",
    "PeriodicPolicy",
    "ThreeVNode",
    "ThreeVSystem",
    "TransactionTriggerPolicy",
    "TwoWaveDetector",
    "check_all",
    "check_version_agreement",
    "check_version_bounds",
    "check_version_counts",
]
