"""Advancement-epoch fencing: dead incarnations can never confuse live ones.

Every message an incarnation of the coordinator role sends carries its
epoch; nodes fence requests below their high-water mark and the
coordinator fences replies not stamped with its live epoch (both count
into ``NetworkStats.stale_epoch_dropped``).  The Hypothesis schedule
drives random interleavings of advancement, crash/recover cycles, and
takeovers, and checks the global invariants: epochs only move up, no wave
is ever applied twice, and the cluster converges to the coordinator's
versions.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ThreeVSystem
from repro.core.advancement import COORDINATOR_ID
from repro.errors import AdvancementInProgress, ProtocolError
from repro.net.message import MessageKind

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_system():
    system = ThreeVSystem(["p", "q", "r"], seed=3)
    for node_id in system.nodes:
        system.load(node_id, "k", 0)
    return system


def try_advance(system):
    try:
        system.advance_versions()
    except (AdvancementInProgress, ProtocolError):
        pass  # already running, or down: skipped beat


def try_crash(coordinator):
    if not coordinator.down:
        coordinator.crash()


_ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["advance", "cycle", "takeover"]),
        st.floats(min_value=1.0, max_value=8.0),   # delay before the action
        st.floats(min_value=1.0, max_value=5.0),   # crash-to-restart gap
        st.sampled_from(["p", "q"]),               # takeover host
    ),
    min_size=1,
    max_size=5,
)


class TestEpochFencingProperties:
    @SLOW
    @given(actions=_ACTIONS)
    def test_random_failure_schedules_keep_the_invariants(self, actions):
        system = make_system()
        coordinator = system.coordinator
        epochs = []
        now = 1.0
        restarts = 0
        for action, delay, gap, host in actions:
            now += delay
            if action == "advance":
                system.sim.schedule(now, try_advance, system)
            elif action == "cycle":
                system.sim.schedule(now, try_crash, coordinator)
                system.sim.schedule(now + gap, coordinator.recover)
                restarts += 1
            else:
                system.sim.schedule(now, try_crash, coordinator)
                system.sim.schedule(now + gap, coordinator.failover, host)
                restarts += 1
            system.sim.schedule(
                now + 0.5, lambda: epochs.append(coordinator.epoch)
            )
        # Always end restarted so any in-flight wave can finish.
        system.run_until_quiet(limit=10000.0)
        assert not coordinator.down
        assert not coordinator.running

        # Epochs are monotone and bumped exactly once per effective
        # restart (overlapping schedules de-duplicate: a crash aimed at
        # an already-down coordinator is skipped, a recovery of an
        # already-restarted one is a no-op).
        assert epochs == sorted(epochs)
        assert coordinator.epoch == (
            1 + coordinator.recoveries + coordinator.takeovers
        )
        assert coordinator.recoveries + coordinator.takeovers <= restarts

        # No double-apply: each completed wave moved vu exactly once, and
        # a resumed wave finishes rather than forking (vr trails by one).
        assert coordinator.vu == 1 + coordinator.completed_runs
        assert coordinator.vr == coordinator.vu - 1 or (
            coordinator.completed_runs == 0 and coordinator.vr == 0
        )

        # The cluster converged to the live incarnation's versions, and no
        # node ever saw an epoch beyond it.
        for node in system.nodes.values():
            assert node.vu == coordinator.vu
            assert node.vr == coordinator.vr
            assert node.coord_epoch <= coordinator.epoch
        assert system.network.stats.stale_epoch_dropped >= 0


class TestFencingCounts:
    def test_mid_wave_crash_fences_the_dead_waves_replies(self):
        """Replies already in flight to a crashed incarnation carry the
        old epoch; the resumed incarnation counts and drops every one."""
        system = make_system()
        coordinator = system.coordinator
        system.sim.schedule(1.0, system.advance_versions)
        system.sim.schedule(2.0, try_crash, coordinator)  # acks in flight
        system.sim.schedule(2.5, coordinator.recover)
        system.run_until_quiet()
        assert coordinator.completed_runs == 1
        assert system.network.stats.stale_epoch_dropped > 0

    def test_nodes_fence_stale_heartbeats(self):
        system = make_system()
        coordinator = system.coordinator
        system.sim.schedule(1.0, try_crash, coordinator)
        system.sim.schedule(2.0, coordinator.failover, "p")
        system.run_until_quiet()
        assert coordinator.epoch == 2
        # Teach q the live epoch, then replay a dead incarnation's
        # heartbeat at it: fenced, counted, high-water mark unmoved.
        system.network.send(
            coordinator.endpoint, "q", MessageKind.COORDINATOR_HEARTBEAT,
            (coordinator.epoch,),
        )
        system.run_until_quiet()
        assert system.nodes["q"].coord_epoch == 2
        before = system.network.stats.stale_epoch_dropped
        system.network.send(
            COORDINATOR_ID, "q", MessageKind.COORDINATOR_HEARTBEAT, (1,),
        )
        system.run_until_quiet()
        assert system.network.stats.stale_epoch_dropped == before + 1
        assert system.nodes["q"].coord_epoch == 2

    def test_newer_epoch_updates_the_high_water_mark(self):
        system = make_system()
        system.network.send(
            COORDINATOR_ID, "p", MessageKind.COORDINATOR_HEARTBEAT, (7,),
        )
        system.run_until_quiet()
        assert system.nodes["p"].coord_epoch == 7
        assert system.network.stats.stale_epoch_dropped == 0
