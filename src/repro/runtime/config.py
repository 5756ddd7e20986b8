"""Per-node tunables shared by every protocol."""

from __future__ import annotations

import dataclasses

from repro.sim.distributions import Constant, Distribution


@dataclasses.dataclass
class NodeConfig:
    """Tunables shared by every node in a system.

    Attributes:
        op_service: Distribution of local service time per operation.
        executor_capacity: Multiprogramming level of the local executor
            (1 = fully serial local execution).
        enable_locking: Whether well-behaved transactions take commuting
            locks (needed only when non-commuting transactions are present;
            pure 3V systems leave this off and take no locks at all).
        completion: When the completion counter is incremented.
            ``"hierarchical"`` (default) increments a subtransaction's
            counter only after all its descendants complete — the timing
            the paper's Table 1 shows, which keeps quiescence detection
            conservative.  ``"immediate"`` increments it right after the
            subtransaction dispatches its children and commits — the
            literal Section 4.1 step 6, under which only the two-wave
            counter read is sound (the C7 ablation exploits this).
        dual_write: Section 4.1 step 4's "update all versions of x greater
            or equal to version V(T)".  ``False`` is an ABLATION that
            updates only ``x(V(T))``, reintroducing the straggler
            inconsistency the rule exists to fix (a version-``v``
            subtransaction landing on a node that already created the
            ``v+1`` copy leaves that copy permanently short).
        initial_update_version: ``vu`` at startup (the paper starts at 1).
        initial_read_version: ``vr`` at startup (the paper starts at 0).
    """

    op_service: Distribution = dataclasses.field(
        default_factory=lambda: Constant(0.001)
    )
    executor_capacity: int = 1
    enable_locking: bool = False
    completion: str = "hierarchical"
    dual_write: bool = True
    initial_update_version: int = 1
    initial_read_version: int = 0
