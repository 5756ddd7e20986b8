"""Unit tests for advancement policies and coordinator bookkeeping."""

import pytest

from repro.core import (
    CountPolicy,
    DivergencePolicy,
    ManualPolicy,
    PeriodicPolicy,
    ThreeVSystem,
    TransactionTriggerPolicy,
)
from repro.storage import Increment
from repro.txn import SubtxnSpec, TransactionSpec, WriteOp


def bump(name):
    return TransactionSpec(
        name=name, root=SubtxnSpec(node="p", ops=[WriteOp("x", Increment(1))])
    )


def make_system(policy=None, **kwargs):
    system = ThreeVSystem(["p", "q"], seed=2, policy=policy, **kwargs)
    system.load("p", "x", 0)
    return system


class TestPeriodicPolicy:
    def test_advances_on_schedule(self):
        system = make_system(policy=PeriodicPolicy(20.0))
        system.run(until=100.0)
        system.stop_policy()
        system.run_until_quiet()
        # Roughly one advancement per period (first at ~20).
        assert 3 <= system.coordinator.completed_runs <= 5

    def test_no_overlapping_advancements(self):
        # Period far shorter than an advancement (latency 1.0 per hop);
        # the policy must serialize, not crash.
        system = make_system(policy=PeriodicPolicy(0.5))
        system.run(until=30.0)
        system.stop_policy()
        system.run_until_quiet()
        assert system.coordinator.completed_runs >= 2
        assert not system.coordinator.running

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            PeriodicPolicy(0.0)

    def test_start_after_override(self):
        system = make_system(policy=PeriodicPolicy(50.0, start_after=5.0))
        system.run(until=20.0)
        system.stop_policy()
        system.run_until_quiet()
        assert system.coordinator.completed_runs == 1


class TestCountPolicy:
    def test_advances_after_threshold_commits(self):
        system = make_system(policy=CountPolicy(5, check_interval=0.5))
        for index in range(12):
            system.submit_at(index + 1.0, bump(f"u{index}"))
        system.run(until=40.0)
        system.stop_policy()
        system.run_until_quiet()
        assert system.coordinator.completed_runs >= 2

    def test_no_advancement_below_threshold(self):
        system = make_system(policy=CountPolicy(100, check_interval=0.5))
        for index in range(3):
            system.submit_at(index + 1.0, bump(f"u{index}"))
        system.run(until=20.0)
        system.stop_policy()
        system.run_until_quiet()
        assert system.coordinator.completed_runs == 0

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            CountPolicy(0)


class TestDivergencePolicy:
    def test_advances_when_versions_drift(self):
        policy = DivergencePolicy(
            threshold=25.0, watch=[("p", "x")], check_interval=0.5
        )
        system = make_system(policy=policy)
        # Ten increments of 5 drift version 1 fifty units from version 0.
        for index in range(10):
            system.submit_at(
                index + 1.0,
                TransactionSpec(
                    name=f"u{index}",
                    root=SubtxnSpec(node="p",
                                    ops=[WriteOp("x", Increment(5))]),
                ),
            )
        system.run(until=60.0)
        system.stop_policy()
        system.run_until_quiet()
        assert system.coordinator.completed_runs >= 1
        # After the advancement the visible value caught up, so the
        # divergence collapsed and re-advancement stopped.
        assert system.value_at("p", "x") >= 30

    def test_no_advancement_below_threshold(self):
        policy = DivergencePolicy(
            threshold=1000.0, watch=[("p", "x")], check_interval=0.5
        )
        system = make_system(policy=policy)
        system.submit(bump("u0"))
        system.run(until=20.0)
        system.stop_policy()
        system.run_until_quiet()
        assert system.coordinator.completed_runs == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DivergencePolicy(threshold=0.0, watch=[("p", "x")])
        with pytest.raises(ValueError):
            DivergencePolicy(threshold=1.0, watch=[])

    def test_unbound_policy_rejected(self):
        from repro.sim import Simulator

        policy = DivergencePolicy(threshold=1.0, watch=[("p", "x")])
        with pytest.raises(ValueError):
            policy.start(Simulator(), None, None)


class TestTransactionTriggerPolicy:
    def test_advances_after_named_commit(self):
        policy = TransactionTriggerPolicy(["end-of-day"])
        system = make_system(policy=policy)
        system.submit_at(1.0, bump("u0"))
        system.submit_at(5.0, bump("end-of-day"))
        system.run(until=40.0)
        system.stop_policy()
        system.run_until_quiet()
        assert system.coordinator.completed_runs == 1
        assert system.value_at("p", "x") == 2

    def test_no_trigger_no_advancement(self):
        policy = TransactionTriggerPolicy(["end-of-day"])
        system = make_system(policy=policy)
        system.submit(bump("u0"))
        system.run(until=20.0)
        system.stop_policy()
        system.run_until_quiet()
        assert system.coordinator.completed_runs == 0

    def test_multiple_triggers_multiple_advancements(self):
        policy = TransactionTriggerPolicy(["close-1", "close-2"])
        system = make_system(policy=policy)
        system.submit_at(1.0, bump("close-1"))
        system.submit_at(2.0, bump("close-2"))
        system.run(until=80.0)
        system.stop_policy()
        system.run_until_quiet()
        assert system.coordinator.completed_runs == 2

    def test_empty_trigger_set_rejected(self):
        with pytest.raises(ValueError):
            TransactionTriggerPolicy([])


class TestManualPolicy:
    def test_never_advances(self):
        system = make_system(policy=ManualPolicy())
        system.submit(bump("u0"))
        system.run_until_quiet()
        assert system.coordinator.completed_runs == 0
        assert system.read_version == 0


class TestCoordinatorBookkeeping:
    def test_advancement_record_phases_ordered(self):
        system = make_system()
        system.submit(bump("u0"))
        system.run_until_quiet()
        system.advance_versions()
        system.run_until_quiet()
        record = system.history.advancements[0]
        assert record.started <= record.phase1_done <= record.phase2_done
        assert record.phase2_done <= record.phase3_done <= record.gc_done
        assert record.duration == record.gc_done - record.started
        assert record.counter_polls >= 2  # phase 2 and phase 4

    def test_version_numbers_track_runs(self):
        system = make_system()
        for _round in range(3):
            system.advance_versions()
            system.run_until_quiet()
        assert system.read_version == 3
        assert system.update_version == 4
        for node in system.nodes.values():
            assert node.vr == 3
            assert node.vu == 4

    def test_control_traffic_is_accounted(self):
        system = make_system()
        system.advance_versions()
        system.run_until_quiet()
        assert system.network.stats.control_messages > 0
        assert system.network.stats.user_messages == 0
