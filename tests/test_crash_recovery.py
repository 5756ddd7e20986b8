"""Crash-recovery: WAL replay, recovery hooks, and the chaos harness.

Crashes are fail-stop at message granularity: the mailbox freezes, and at
recovery the volatile store/counter state is discarded and rebuilt from
the write-ahead journal before the mailbox thaws.  These tests crash
nodes at the protocols' most delicate moments — mid-advancement for 3V,
mid-prepare for 2PC — and assert full convergence, plus the digest
identity that makes fault-free journaled runs indistinguishable from the
seed path.
"""

import pytest

from repro.analysis import audit
from repro.core import ThreeVSystem, check_all
from repro.errors import ProtocolError
from repro.faults import FaultPlan
from repro.exp import chaos_spec, run_chaos_spec
from repro.storage import Increment
from repro.txn import SubtxnSpec, TransactionSpec, WriteOp
from repro.workloads import PROTOCOLS, run_recording_experiment
from repro.workloads.runner import build_system


def two_node_txn(name, amount):
    return TransactionSpec(
        name=name,
        root=SubtxnSpec(
            node="p", ops=[WriteOp("x", Increment(amount))],
            children=[SubtxnSpec(node="q",
                                 ops=[WriteOp("x", Increment(amount))])],
        ),
    )


def local_txn(name):
    return TransactionSpec(
        name=name,
        root=SubtxnSpec(node="p", ops=[WriteOp("x", Increment(1))]),
    )


class TestCrashSurface:
    def test_crash_requires_faults(self):
        system = ThreeVSystem(["p", "q"], seed=1)
        with pytest.raises(ProtocolError):
            system.crash("p")

    def test_double_crash_rejected(self):
        system = ThreeVSystem(["p", "q"], seed=1, faults=FaultPlan())
        system.crash("p")
        with pytest.raises(ProtocolError):
            system.crash("p")

    def test_recover_requires_down_node(self):
        system = ThreeVSystem(["p", "q"], seed=1, faults=FaultPlan())
        with pytest.raises(ProtocolError):
            system.recover("p")

    def test_crash_recover_cycle_bumps_counters(self):
        system = ThreeVSystem(["p", "q"], seed=1, faults=FaultPlan())
        system.crash("p")
        assert system.down_nodes == {"p"}
        system.recover("p")
        assert system.down_nodes == set()
        assert system.crash_count == 1
        assert system.recovery_count == 1
        assert system.node("p").journal.replays == 1


class TestCrashHandOver:
    """A crash interrupts all *future* message processing (``crash()``'s
    contract) — including a message whose hand-over to the node was
    already under way in the tick of the crash.  (The getter-based node
    loop had taken such a message off the mailbox before the freeze and
    dispatched it on the crashed node.)"""

    @staticmethod
    def system_with_backlog():
        system = ThreeVSystem(["p", "q"], seed=1, faults=FaultPlan())
        system.run(until=1.0)
        system.crash("p")
        for name in ("a", "b"):  # delivered while down: queued
            system.submit(local_txn(name))
        return system

    @staticmethod
    def assert_drains_in_order(system):
        system.recover("p")
        system.run(until=system.sim.now + 5.0)
        assert list(system.history.txns) == ["a", "b", "c"]
        assert all(record.global_complete_time is not None
                   for record in system.history.txns.values())
        assert system.node("p").store.read_max_leq("x", 10 ** 9) == 3

    def test_nothing_is_dispatched_between_crash_and_recover(self):
        system = self.system_with_backlog()
        system.recover("p")             # the backlog's hand-over starts,
        system.submit(local_txn("c"))   # one more delivery joins it,
        system.crash("p")               # and the node dies — all one tick
        system.run(until=5.0)
        assert list(system.history.txns) == []
        self.assert_drains_in_order(system)

    def test_crash_mid_drain_stops_at_the_next_message(self):
        system = self.system_with_backlog()
        system.submit(local_txn("c"))
        system.recover("p")
        # Lands after the first queued message is handed over and before
        # the second: same tick, next scheduled callback.
        system.sim.schedule_now(system.crash, "p")
        system.run(until=5.0)
        assert list(system.history.txns) == ["a"]
        self.assert_drains_in_order(system)


class TestCrashMidAdvancement:
    def test_3v_crash_during_advancement_converges(self):
        """Crash a participant while phase 1/2 of an advancement is in
        flight; after recovery the advancement completes and the stores
        agree."""
        system = ThreeVSystem(["p", "q"], seed=1, faults=FaultPlan(),
                              poll_interval=0.25)
        system.load("p", "x", 0)
        system.load("q", "x", 0)
        for i in range(6):
            system.submit_at(float(i), two_node_txn(f"t{i}", 1 << i))
        system.sim.schedule(6.5, system.advance_versions)
        # The advancement notice to q is at most ~1 time unit away; crash
        # q right in the middle of the protocol exchange.
        system.sim.schedule(7.0, system.crash, "q")
        system.sim.schedule(12.0, system.recover, "q")
        system.run(until=30.0)
        system.run_until_quiet(limit=1000.0)
        check_all(system)
        assert system.read_version >= 1
        expected = sum(1 << i for i in range(6))
        top = max(system.node("p").store.versions("x"))
        assert system.node("p").store.read_max_leq("x", top) == expected
        assert system.node("q").store.read_max_leq("x", top) == expected
        report = audit(system.history)
        assert report.clean

    def test_crash_discards_unjournaled_state(self):
        """A mutation that bypasses the journal does not survive — the
        replay really does rebuild from the log, not keep the object."""
        system = ThreeVSystem(["p"], seed=1, faults=FaultPlan())
        system.load("p", "x", 5)
        store = system.node("p").store
        store.raw.load("y", 99)  # behind the journal's back
        system.crash("p")
        system.recover("p")
        fresh = system.node("p").store
        assert fresh.read_max_leq("x", 0) == 5
        assert "y" not in fresh


class TestCrashMidPrepare:
    def test_2pc_crash_during_prepare_converges(self):
        """Crash the participant while PREPARE is on the wire: the vote
        waits in the frozen mailbox, the coordinator blocks in-doubt, and
        recovery lets the transaction finish."""
        system = build_system("2pc", ["p", "q"], seed=1,
                              faults=FaultPlan())
        system.load("p", "x", 0)
        system.load("q", "x", 0)
        system.submit_at(1.0, two_node_txn("t0", 7))
        # Root starts at p, subtxn + PREPARE reach q around t=2-4.
        system.sim.schedule(2.0, system.crash, "q")
        system.sim.schedule(10.0, system.recover, "q")
        system.run(until=30.0)
        system.run_until_quiet(limit=1000.0)
        record = system.history.txns["t0"]
        assert not record.aborted
        for node_id in ("p", "q"):
            store = system.node(node_id).store
            top = max(store.versions("x"))
            assert store.read_max_leq("x", top) == 7


class TestCrashRecoveryAcrossProtocols:
    @pytest.mark.parametrize("protocol", list(PROTOCOLS))
    def test_storm_with_crashes_converges(self, protocol):
        """Every registered protocol survives a small seeded storm (loss,
        duplication, one crash/recover cycle per node): it converges,
        replicas agree, the bitmask oracle matches, and strict-audit
        protocols stay clean."""
        spec = chaos_spec(protocol, nodes=3, duration=8.0, update_rate=4.0,
                          inquiry_rate=2.0, audit_rate=0.1)
        report = run_chaos_spec(spec, verify_repeat=False)
        assert report.ok, report.failures
        assert report.summary.crashes == 3
        assert report.summary.recoveries == 3
        assert report.summary.messages_dropped > 0

    def test_chaos_repeatability_and_seed_sensitivity(self):
        spec = chaos_spec("3v", nodes=3, duration=8.0)
        report = run_chaos_spec(spec, verify_repeat=True)
        assert report.ok, report.failures
        assert report.repeat_identical is True
        other = run_chaos_spec(spec.replace(fault_seed=spec.fault_seed + 1),
                               verify_repeat=False)
        assert other.ok, other.failures
        assert (other.summary.messages_dropped
                != report.summary.messages_dropped
                or other.summary.retransmits != report.summary.retransmits)


class TestDigestIdentity:
    def test_zero_fault_plan_is_event_identical_to_seed_path(self):
        """Journaling plus an all-zero plan must not perturb the
        simulation at all: same events, same transactions, same stores."""
        plain = run_recording_experiment("3v", nodes=3, duration=10.0,
                                         seed=3)
        journaled = run_recording_experiment("3v", nodes=3, duration=10.0,
                                             seed=3, faults=FaultPlan())
        assert (plain.system.sim.scheduled_count
                == journaled.system.sim.scheduled_count)
        assert plain.system.sim.now == journaled.system.sim.now
        assert set(plain.history.txns) == set(journaled.history.txns)
        for node_id, node in plain.system.nodes.items():
            other = journaled.system.node(node_id)
            assert node.store.snapshot() == other.store.raw.snapshot()
        # ... and the journal really was armed on the journaled run.
        assert journaled.system.journaling
        assert journaled.system.node("n00").journal.component(
            "store").journal_length > 0
