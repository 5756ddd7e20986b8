"""The hospital billing scenario (Section 1's motivating example).

"Consider a large hospital with multiple departments ... A visit by a
patient results in charges from several departments."  Departments are
database nodes; patients are entities; a *visit* is a well-behaved
recording transaction that records procedures and increments the balance
due in each department the visit touched; an *inquiry* reads the patient's
total charges across departments; a *statement audit* reads many patients
for billing.

This module gives the generic recording workload hospital vocabulary plus
a ready-made scenario builder used by the quickstart example and the F1
benchmark.
"""

from __future__ import annotations

import typing

from repro.sim.distributions import RngRegistry
from repro.workloads.recording import RecordingConfig, RecordingWorkload

#: Default department names (database nodes).
DEPARTMENTS = (
    "radiology",
    "pediatrics",
    "cardiology",
    "pharmacy",
    "laboratory",
    "surgery",
)


class HospitalWorkload(RecordingWorkload):
    """Recording workload with hospital naming."""

    def make_visit(self, index: int):
        """A patient visit: charges in every department the patient uses."""
        return self.make_recording(index)

    def make_balance_inquiry(self, index: int):
        """A patient asking for their balance due."""
        return self.make_inquiry(index)

    def make_statement_run(self, index: int):
        """Monthly statement generation over a sample of patients."""
        return self.make_audit(index)

    def make_billing_adjustment(self, index: int, value=None):
        """A manual correction that overwrites a balance (non-commuting)."""
        return self.make_correction(index, value)

    def patient_departments(self, patient: int) -> typing.List[str]:
        return self.entity_homes[patient]


def hospital_workload(
    departments: typing.Sequence[str] = DEPARTMENTS,
    patients: int = 100,
    departments_per_visit: int = 2,
    seed: int = 0,
    amount_mode: str = "money",
    abort_fraction: float = 0.0,
) -> HospitalWorkload:
    """Build a hospital workload with sensible defaults."""
    config = RecordingConfig(
        nodes=list(departments),
        entities=patients,
        span=departments_per_visit,
        amount_mode=amount_mode,
        charge_low=25.0,
        charge_high=2500.0,
        abort_fraction=abort_fraction,
    )
    return HospitalWorkload(config, RngRegistry(seed))
