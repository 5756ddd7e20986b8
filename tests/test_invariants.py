"""The invariant checker must actually catch violations (§4.4).

Each test corrupts a healthy system in one specific way and asserts the
corresponding check raises — guarding against a checker that silently
passes everything.
"""

import pytest

from repro.core import InvariantMonitor, ThreeVSystem, check_all
from repro.core.invariants import (
    check_version_agreement,
    check_version_bounds,
    check_version_counts,
)
from repro.errors import InvariantViolation, StorageError
from repro.storage import Increment, MVStore


@pytest.fixture
def system():
    s = ThreeVSystem(["p", "q"], seed=1)
    s.load("p", "x", 0)
    s.load("q", "y", 0)
    return s


class TestHealthySystemPasses:
    def test_fresh_system(self, system):
        check_all(system)

    def test_after_traffic_and_advancement(self, system):
        from repro.txn import SubtxnSpec, TransactionSpec, WriteOp

        system.submit(TransactionSpec(
            name="t",
            root=SubtxnSpec(node="p", ops=[WriteOp("x", Increment(1))]),
        ))
        system.run_until_quiet()
        system.advance_versions()
        system.run_until_quiet()
        check_all(system)


class TestCorruptionsCaught:
    def test_vu_equal_to_vr(self, system):
        system.node("p").vu = system.node("p").vr
        with pytest.raises(InvariantViolation):
            check_version_bounds(system)

    def test_vu_too_far_ahead(self, system):
        system.node("p").vu = system.node("p").vr + 3
        with pytest.raises(InvariantViolation):
            check_version_bounds(system)

    def test_too_many_versions_idle(self, system):
        # Three live versions with no advancement running: property 1a.
        system.node("p").store.write("x", 1, Increment(1))
        system.node("p").store.write("x", 2, Increment(1))
        with pytest.raises(InvariantViolation):
            check_version_counts(system)

    def test_four_versions_always_wrong(self, system):
        node = system.node("p")
        # A 3V store refuses the fourth version outright...
        for version in (1, 2):
            node.store.write("x", version, Increment(1))
        with pytest.raises(StorageError):
            node.store.write("x", 3, Increment(1))
        # ...so the checker is shown one on an unchecked store.
        node.store = MVStore()
        node.store.load("x", 0)
        for version in (1, 2, 3):
            node.store.write("x", version, Increment(1))
        system.coordinator.running = True
        try:
            with pytest.raises(InvariantViolation):
                check_version_counts(system)
        finally:
            system.coordinator.running = False

    def test_read_version_disagreement_idle(self, system):
        system.node("p").vr = 1
        system.node("p").vu = 2
        with pytest.raises(InvariantViolation):
            check_version_agreement(system)

    def test_update_version_disagreement_idle(self, system):
        system.node("p").vu = 2
        with pytest.raises(InvariantViolation):
            check_version_agreement(system)

    def test_double_disagreement_during_advancement(self, system):
        system.coordinator.running = True
        try:
            # Differing on BOTH vu and vr violates property 2b.
            system.node("p").vu = 2
            system.node("p").vr = 1
            with pytest.raises(InvariantViolation):
                check_version_agreement(system)
        finally:
            system.coordinator.running = False

    def test_single_disagreement_during_advancement_allowed(self, system):
        system.coordinator.running = True
        try:
            system.node("p").vu = 2  # vr still agrees
            check_version_agreement(system)
        finally:
            system.coordinator.running = False


class TestMonitor:
    def test_monitor_raises_on_scheduled_corruption(self, system):
        monitor = InvariantMonitor(system, every=0.5)
        system.sim.schedule(2.0, setattr, system.node("p"), "vu", 99)
        with pytest.raises(InvariantViolation):
            system.run(until=5.0)
        monitor.stop()

    def test_monitor_counts_checks(self, system):
        monitor = InvariantMonitor(system, every=0.5)
        system.run(until=5.0)
        monitor.stop()
        assert monitor.checks_run == 10
