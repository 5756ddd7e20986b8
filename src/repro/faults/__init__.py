"""Fault injection: deterministic message loss, duplication, delay spikes,
and node crash/recover schedules.

Fault plans are data; the network reads them.  The package may import
only ``repro.sim`` and ``repro.errors`` (enforced by
``tools/check_layering.py``): the stages that act on a plan live in
:class:`repro.net.Network`, the crash/recover surface on
:class:`repro.runtime.System`, and the chaos harness that *drives*
protocols under these faults in :mod:`repro.exp.chaos`.

See ``docs/FAULTS.md`` for the fault model and how it relates to the
paper's reliability assumptions.
"""

from repro.faults.plan import (
    CrashEvent,
    FaultPlan,
    LinkFaults,
    PartitionEvent,
    RetransmitPolicy,
)

__all__ = [
    "CrashEvent",
    "FaultPlan",
    "LinkFaults",
    "PartitionEvent",
    "RetransmitPolicy",
]
