"""Fault injection: degraded links, stalls, and pathological timing.

The paper assumes reliable (if arbitrarily slow) message delivery and no
permanent failures.  Within that model, the interesting adversity is
*extreme asynchrony*: links that stall for long windows, coordinators cut
off from nodes, and compensation racing its own transaction.  The 3V
property under all of it: user transactions on healthy nodes never feel
any of it, and the protocol state converges once messages flow again.
"""

import pytest

from repro.analysis import audit, max_remote_wait
from repro.core import ThreeVSystem, check_all
from repro.net import LinkLatency, PartitionedLatency, constant_latency
from repro.sim import Constant, RngRegistry
from repro.storage import Increment
from repro.txn import ReadOp, SubtxnSpec, TransactionSpec, WriteOp
from repro.workloads import RecordingConfig, RecordingWorkload
from repro.workloads.arrivals import drive, poisson_arrivals


def local_txn(name, node, key, delta=1):
    return TransactionSpec(
        name=name, root=SubtxnSpec(node=node, ops=[WriteOp(key, Increment(delta))])
    )


class TestStalledCoordinatorLinks:
    def make_system(self, stalled, start, end):
        # The network binds the simulation clock to the model at
        # construction time; no manual clock plumbing needed.
        latency = PartitionedLatency(
            base=constant_latency(1.0), stalled_links=stalled,
            start=start, end=end,
        )
        system = ThreeVSystem(["p", "q"], seed=1, latency=latency)
        system.load("p", "x", 0)
        system.load("q", "y", 0)
        return system

    def test_advancement_stalls_but_user_txns_do_not(self):
        """Coordinator -> q is down for 50 time units: the advancement
        cannot finish phase 1, yet transactions at p and q run at full
        speed the whole time."""
        system = self.make_system(
            stalled=[("coordinator", "q")], start=0.0, end=50.0
        )
        system.sim.schedule(5.0, system.advance_versions)
        for k in range(20):
            system.submit_at(6.0 + k, local_txn(f"u{k}", "p", "x"))
            system.submit_at(6.5 + k, local_txn(f"v{k}", "q", "y"))
        system.run_until_quiet()
        for k in range(20):
            for name in (f"u{k}", f"v{k}"):
                record = system.history.txn(name)
                assert record.local_latency < 0.1
                assert record.remote_wait == 0.0
        # The advancement did eventually complete, after the partition.
        record = system.history.advancements[0]
        assert record.phase1_done > 50.0
        assert system.read_version == 1
        check_all(system)

    def test_partition_during_phase2_delays_only_gc(self):
        """Counter-read replies from q stall mid-advancement; user work
        keeps running and the advancement completes afterwards."""
        system = self.make_system(
            stalled=[("q", "coordinator")], start=8.0, end=40.0
        )
        system.submit_at(1.0, local_txn("u0", "p", "x"))
        system.sim.schedule(5.0, system.advance_versions)
        system.submit_at(20.0, local_txn("u1", "q", "y"))
        system.run_until_quiet()
        assert system.history.txn("u1").remote_wait == 0.0
        assert system.read_version == 1
        assert system.history.advancements[0].gc_done > 40.0


class TestExtremeStragglers:
    def test_descendant_delayed_past_two_advancements(self):
        """A version-1 child held in transit while the system advances
        twice: it must still land correctly (the quiescence check of each
        advancement waits for it — version 1 cannot become readable
        until it completes)."""
        system = ThreeVSystem(
            ["p", "q"], seed=1,
            latency=LinkLatency(
                links={("p", "q"): Constant(30.0)}, default=Constant(1.0)
            ),
            poll_interval=0.5,
        )
        system.load("p", "x", 0)
        system.load("q", "y", 0)
        spec = TransactionSpec(
            name="slow",
            root=SubtxnSpec(
                node="p", ops=[WriteOp("x", Increment(1))],
                children=[SubtxnSpec(node="q", ops=[WriteOp("y", Increment(1))])],
            ),
        )
        system.submit_at(1.0, spec)
        system.sim.schedule(2.0, system.advance_versions)
        system.run_until_quiet()
        # The first advancement could not declare version 1 quiescent
        # before the child landed at t=31.
        assert system.history.advancements[0].phase2_done > 31.0
        assert system.value_at("q", "y") == 1
        # A second advancement then runs normally.
        system.advance_versions()
        system.run_until_quiet()
        assert system.read_version == 2
        check_all(system)


class TestCompensationRaces:
    def test_compensation_overtakes_original(self):
        """The aborting subtransaction's compensation toward the root can
        overtake a sibling subtransaction still in transit on a reordering
        link; the tombstone mechanism must suppress the sibling when it
        finally arrives.  (Seed chosen so the overtake happens; asserted
        via the tombstone count.)"""
        from repro.sim import Uniform

        system = ThreeVSystem(
            ["p", "b", "c"], seed=1,
            latency=LinkLatency(
                links={("p", "c"): Uniform(1.0, 30.0)},  # reordering link
                default=Constant(0.5),
            ),
        )
        system.load("p", "kp", 100)
        system.load("b", "kb", 100)
        system.load("c", "kc", 100)
        spec = TransactionSpec(
            name="t",
            root=SubtxnSpec(
                node="p", ops=[WriteOp("kp", Increment(1))],
                children=[
                    SubtxnSpec(node="b", ops=[WriteOp("kb", Increment(1))],
                               abort_here=True),
                    SubtxnSpec(node="c", ops=[WriteOp("kc", Increment(1))]),
                ],
            ),
        )
        system.submit(spec)
        system.run_until_quiet()
        record = system.history.txn("t")
        assert record.aborted and record.compensated
        # The compensation really did arrive first at c.
        assert system.node("c").tombstones_created == 1
        # No residue anywhere: the tombstoned original never applied.
        assert system.node("p").store.read_max_leq("kp", 1) == 100
        assert system.node("b").store.read_max_leq("kb", 1) == 100
        assert system.node("c").store.read_max_leq("kc", 1) == 100
        # Counters still converge: the next advancement terminates.
        system.advance_versions()
        system.run_until_quiet()
        assert system.read_version == 1

    def test_tombstoned_original_does_not_dispatch_grandchildren(self):
        """If the suppressed subtransaction had children of its own, they
        must never run (their nodes are untouched)."""
        from repro.sim import Uniform

        system = ThreeVSystem(
            ["p", "b", "c", "d"], seed=1,
            latency=LinkLatency(
                links={("p", "c"): Uniform(1.0, 30.0)},
                default=Constant(0.5),
            ),
        )
        for node, key in (("p", "kp"), ("b", "kb"), ("c", "kc"), ("d", "kd")):
            system.load(node, key, 0)
        spec = TransactionSpec(
            name="t",
            root=SubtxnSpec(
                node="p", ops=[WriteOp("kp", Increment(1))],
                children=[
                    SubtxnSpec(node="b", ops=[WriteOp("kb", Increment(1))],
                               abort_here=True),
                    SubtxnSpec(
                        node="c", ops=[WriteOp("kc", Increment(1))],
                        children=[SubtxnSpec(node="d",
                                             ops=[WriteOp("kd", Increment(1))])],
                    ),
                ],
            ),
        )
        system.submit(spec)
        system.run_until_quiet()
        assert system.node("d").store.get_exact("kd", 0) == 0
        assert system.node("d").store.versions("kd") == [0]
        system.advance_versions()
        system.run_until_quiet()
        assert system.read_version == 1


class TestSlowNodeUnderLoad:
    def test_one_overloaded_node_does_not_fracture_reads(self):
        """One node serves 50x slower; everything queues there but the
        oracle stays clean and other nodes' local traffic is unaffected."""
        from repro.core import NodeConfig
        from repro.sim import Constant as Const

        node_ids = ["n0", "n1", "n2", "n3"]
        system = ThreeVSystem(
            node_ids, seed=3,
            node_config=NodeConfig(op_service=Const(0.001)),
        )
        # Overload n0 by swapping in a tiny-capacity, slow executor.
        system.node("n0").config = NodeConfig(op_service=Const(0.05))
        config = RecordingConfig(nodes=node_ids, entities=8, span=2,
                                 amount_mode="bitmask")
        workload = RecordingWorkload(config, RngRegistry(4))
        workload.install(system)
        arrivals = RngRegistry(5)
        drive(system, poisson_arrivals(arrivals, "u", 6.0, 20.0),
              workload.draw_recording, workload.build_recording)
        drive(system, poisson_arrivals(arrivals, "r", 4.0, 20.0),
              workload.draw_inquiry, workload.build_inquiry)
        system.sim.schedule(10.0, system.advance_versions)
        system.run(until=20.0)
        system.run_until_quiet()
        report = audit(system.history, workload, check_snapshots=True)
        assert report.clean, report.violations[:3]
        assert max_remote_wait(system.history) == 0.0
