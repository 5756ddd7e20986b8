"""The advancement coordinator as a crashable, fail-over-able role.

The paper assumes "some distributed mutual exclusion mechanism" keeps
advancement single-threaded; these tests exercise the implemented scheme:
the role's control record survives a crash, every incarnation stamps its
messages with a monotone epoch, a crashed incarnation can recover in
place or be taken over by the lowest-id live node's standby monitor, and
a resumed wave re-runs idempotently from the top.
"""

import pytest

from repro.core import ThreeVSystem
from repro.core.advancement import COORDINATOR_ID
from repro.core.policy import PeriodicPolicy
from repro.errors import ProtocolError
from repro.faults import CrashEvent, FaultPlan


def make_system(**kwargs):
    system = ThreeVSystem(["p", "q"], seed=1, **kwargs)
    system.load("p", "x", 0)
    system.load("q", "y", 0)
    return system


class TestCrashRecover:
    def test_crash_mid_wave_then_recover_completes_the_wave(self):
        system = make_system()
        coordinator = system.coordinator
        system.sim.schedule(1.0, system.advance_versions)
        # Crash strictly inside the wave (phase 1 acks take ~2 time units
        # at constant latency 1.0), recover shortly after.
        system.sim.schedule(2.0, coordinator.crash)
        system.sim.schedule(5.0, coordinator.recover)
        system.run_until_quiet()
        assert coordinator.crashes == 1
        assert coordinator.recoveries == 1
        assert coordinator.epoch == 2
        # The resumed wave completed: versions moved exactly one step.
        assert (coordinator.vu, coordinator.vr) == (2, 1)
        assert coordinator.completed_runs == 1
        assert not coordinator.running

    def test_advance_while_down_raises(self):
        system = make_system()
        system.coordinator.crash()
        with pytest.raises(ProtocolError, match="down"):
            system.advance_versions()
        with pytest.raises(ProtocolError, match="already down"):
            system.coordinator.crash()

    def test_repeated_cycles_keep_epoch_monotone(self):
        system = make_system()
        coordinator = system.coordinator
        seen = [coordinator.epoch]
        for start in (1.0, 20.0, 40.0):
            system.sim.schedule(start, system.advance_versions)
            system.sim.schedule(start + 1.5, coordinator.crash)
            system.sim.schedule(start + 4.0, coordinator.recover)
        system.run_until_quiet()
        seen.append(coordinator.epoch)
        assert coordinator.epoch == 4  # one bump per recovery
        assert coordinator.completed_runs == 3
        assert (coordinator.vu, coordinator.vr) == (4, 3)
        assert seen == sorted(seen)

    def test_crash_between_waves_resumes_nothing(self):
        system = make_system()
        coordinator = system.coordinator
        system.sim.schedule(1.0, system.advance_versions)
        system.run_until_quiet()
        assert coordinator.completed_runs == 1
        coordinator.crash()
        coordinator.recover()
        system.run_until_quiet()
        # No wave in flight: nothing restarted.
        assert coordinator.completed_runs == 1
        assert not coordinator.running
        assert coordinator.epoch == 2


class TestWedgeRegression:
    def test_killed_wave_resets_running(self):
        """Regression: a killed advancement wave must not leave the
        ``running`` flag wedged (every later ``advance()`` would raise
        AdvancementInProgress forever)."""
        system = make_system()
        wave = system.advance_versions()
        system.sim.run(until=1.0)
        assert system.coordinator.running
        wave.kill()
        system.run_until_quiet()
        assert not system.coordinator.running
        # The killed wave is still in flight; a recovery cycle fences
        # the dead wave's stragglers (epoch bump) and resumes it.
        system.coordinator.crash()
        system.coordinator.recover()
        assert system.coordinator.running
        system.run_until_quiet()
        assert system.coordinator.vr == 1
        assert system.coordinator.completed_runs == 1

    def test_stop_policy_actually_stops_the_driver(self):
        """Regression: killing the policy driver while it waits on a wave
        must terminate it — a driver that absorbs its own kill keeps
        advancing versions forever and the system never drains."""
        system = make_system(policy=PeriodicPolicy(3.0))
        system.sim.run(until=40.0)
        system.stop_policy()
        system.run_until_quiet(limit=500.0)
        runs = system.coordinator.completed_runs
        assert runs >= 2
        system.sim.run(until=1000.0)
        assert system.coordinator.completed_runs == runs

    def test_policy_survives_coordinator_crash_cycles(self):
        system = make_system(policy=PeriodicPolicy(4.0))
        coordinator = system.coordinator
        system.sim.schedule(5.0, coordinator.crash)
        system.sim.schedule(8.0, coordinator.recover)
        system.sim.run(until=40.0)
        system.stop_policy()
        system.run_until_quiet(limit=500.0)
        # The beat during the outage was skipped, not fatal: waves kept
        # completing after recovery.
        assert coordinator.completed_runs >= 2
        assert coordinator.vr == coordinator.completed_runs


class TestScheduledCoordinatorCrash:
    def test_fault_plan_targets_the_coordinator(self):
        plan = FaultPlan(crashes=(
            CrashEvent(node=COORDINATOR_ID, at=5.0, down_for=3.0),
        ))
        system = make_system(policy=PeriodicPolicy(4.0), faults=plan)
        system.sim.run(until=25.0)
        system.stop_policy()
        system.run_until_quiet(limit=500.0)
        coordinator = system.coordinator
        assert coordinator.crashes == 1
        assert coordinator.recoveries == 1
        assert coordinator.epoch == 2
        assert coordinator.completed_runs >= 2
        assert coordinator.vr == coordinator.completed_runs

    def test_scheduled_crash_skips_an_already_down_coordinator(self):
        plan = FaultPlan(crashes=(
            CrashEvent(node=COORDINATOR_ID, at=2.0, down_for=2.0),
            CrashEvent(node=COORDINATOR_ID, at=3.0, down_for=2.0),
        ))
        system = make_system(faults=plan)
        system.run_until_quiet()
        assert system.coordinator.crashes == 1


class TestLeaseFailover:
    def test_lowest_id_live_node_takes_over(self):
        system = make_system(lease_interval=2.0)
        coordinator = system.coordinator
        system.sim.schedule(5.0, coordinator.crash)
        system.sim.run(until=30.0)
        assert coordinator.takeovers == 1
        assert coordinator.host == "p"  # lowest id wins deterministically
        assert coordinator.endpoint == f"{COORDINATOR_ID}@p"
        assert not coordinator.down
        assert coordinator.epoch == 2
        # A late scheduled recovery of the superseded incarnation is a
        # no-op: the takeover already owns the role.
        coordinator.recover()
        assert coordinator.takeovers == 1
        assert coordinator.recoveries == 0
        assert coordinator.host == "p"
        # The new incarnation advances versions like the old one did.
        system.advance_versions()
        system.sim.run(until=60.0)
        assert coordinator.vr == 1
        system.stop_policy()
        system.run_until_quiet(limit=500.0)

    def test_takeover_skips_down_nodes(self):
        system = make_system(lease_interval=2.0, faults=FaultPlan())
        coordinator = system.coordinator
        system.crash("p")
        system.sim.schedule(5.0, coordinator.crash)
        system.sim.run(until=40.0)
        assert coordinator.takeovers == 1
        assert coordinator.host == "q"  # p is down, next-lowest wins
        system.stop_policy()

    def test_crashing_the_host_node_crashes_the_takeover(self):
        system = make_system(lease_interval=2.0, faults=FaultPlan())
        coordinator = system.coordinator
        system.sim.schedule(5.0, coordinator.crash)
        system.sim.run(until=30.0)
        assert coordinator.host == "p"
        system.crash("p")
        assert coordinator.down
        assert coordinator.crashes == 2
        # The surviving node's standby takes the role in turn.
        system.sim.run(until=60.0)
        assert coordinator.takeovers == 2
        assert coordinator.host == "q"
        assert coordinator.epoch == 3
        system.stop_policy()

    def test_zero_lease_interval_spawns_no_machinery(self):
        quiet = make_system()
        leased = make_system(lease_interval=2.0)
        assert quiet.coordinator._heartbeat is None
        assert not quiet._monitors
        assert leased.coordinator._heartbeat is not None
        assert len(leased._monitors) == 2
        with pytest.raises(ProtocolError):
            make_system(lease_interval=-1.0)


class TestChaosHarnessAxes:
    def test_3v_chaos_with_control_plane_axes(self):
        from repro.exp import chaos_spec, run_chaos_spec

        spec = chaos_spec("3v", duration=10.0, partition_count=1,
                          coordinator_crashes=1)
        report = run_chaos_spec(spec, verify_repeat=False)
        assert report.ok, report.failures
        summary = report.summary
        assert summary.coordinator_crashes == 1
        assert summary.coordinator_recoveries == 1
        assert summary.coordinator_epoch >= 2
        assert summary.partitions_cut > 0

    def test_manual_disagreement_is_a_finding_not_a_failure(self):
        """Under partitions the manual baseline may lose a straggler's
        write (the paper's documented failure mode): the chaos harness
        reports the disagreement but does not fail the run."""
        from repro.exp import chaos_spec, run_chaos_spec
        from repro.exp.chaos import _expects_convergence
        from repro.runtime.registry import PROTOCOLS

        assert not PROTOCOLS["manual"].detects_termination
        assert PROTOCOLS["3v"].detects_termination
        cut = chaos_spec("manual", duration=10.0, partition_count=1)
        calm = chaos_spec("manual", duration=10.0)
        assert not _expects_convergence(cut, PROTOCOLS["manual"])
        assert _expects_convergence(calm, PROTOCOLS["manual"])
        assert _expects_convergence(cut, PROTOCOLS["3v"])
        report = run_chaos_spec(cut, verify_repeat=False)
        assert report.ok, report.failures
