"""Distributed NC3V scenarios: deadlock cycles, mixed reads, scale."""

import pytest

from repro.analysis import audit, atomic_visibility_violations
from repro.core import ThreeVSystem
from repro.net import constant_latency
from repro.sim import RngRegistry
from repro.storage import Assign, Increment
from repro.txn import ReadOp, SubtxnSpec, TransactionSpec, WriteOp
from repro.workloads import RecordingConfig, RecordingWorkload
from repro.workloads.arrivals import drive, poisson_arrivals


def nc_two_key(name, first_node, second_node, first_key, second_key, value):
    return TransactionSpec(
        name=name,
        root=SubtxnSpec(
            node=first_node,
            ops=[WriteOp(first_key, Assign(value))],
            children=[
                SubtxnSpec(node=second_node,
                           ops=[WriteOp(second_key, Assign(value))])
            ],
        ),
    )


class TestDistributedDeadlock:
    def test_cycle_between_nc_txns_resolved_by_wait_die(self):
        """K1 locks x@p then y@q; K2 locks y@q then x@p — a distributed
        deadlock cycle.  Wait-die kills exactly one; the other commits."""
        system = ThreeVSystem(
            ["p", "q"], seed=4, allow_noncommuting=True,
            latency=constant_latency(2.0),
        )
        system.load("p", "x", 0)
        system.load("q", "y", 0)
        system.submit_at(1.0, nc_two_key("K1", "p", "q", "x", "y", 111))
        system.submit_at(1.2, nc_two_key("K2", "q", "p", "y", "x", 222))
        system.run_until_quiet()
        outcomes = {
            name: system.history.txn(name).aborted for name in ("K1", "K2")
        }
        assert sorted(outcomes.values()) == [False, True]
        winner = next(n for n, aborted in outcomes.items() if not aborted)
        value = 111 if winner == "K1" else 222
        # The winner's assigns are in place on both nodes; the loser's
        # rollback left nothing behind.
        assert system.node("p").store.get_exact("x", 1) == value
        assert system.node("q").store.get_exact("y", 1) == value
        # Counters converge through the abort: advancement completes.
        system.advance_versions()
        system.run_until_quiet()
        assert system.read_version == 1

    def test_loser_is_the_younger_transaction(self):
        system = ThreeVSystem(
            ["p", "q"], seed=4, allow_noncommuting=True,
            latency=constant_latency(2.0),
        )
        system.load("p", "x", 0)
        system.load("q", "y", 0)
        system.submit_at(1.0, nc_two_key("older", "p", "q", "x", "y", 1))
        system.submit_at(1.2, nc_two_key("younger", "q", "p", "y", "x", 2))
        system.run_until_quiet()
        assert not system.history.txn("older").aborted
        assert system.history.txn("younger").aborted


class TestNCReads:
    def test_nc_txn_can_read_and_write(self):
        """A correction that reads the current balance before overwriting
        (read at max version <= V(K))."""
        system = ThreeVSystem(["p"], seed=4, allow_noncommuting=True)
        system.load("p", "x", 40)
        # A committed well-behaved update brings version 1 to 50.
        system.submit(TransactionSpec(
            name="w",
            root=SubtxnSpec(node="p", ops=[WriteOp("x", Increment(10))]),
        ))
        system.run_until_quiet()
        spec = TransactionSpec(
            name="K",
            root=SubtxnSpec(node="p",
                            ops=[ReadOp("x"), WriteOp("x", Assign(0))]),
        )
        system.submit(spec)
        system.run_until_quiet()
        record = system.history.txn("K")
        assert not record.aborted
        # V(K) = 1, so the read saw the version-1 value (50), not 40.
        assert record.reads == [("x", 50)]
        assert system.node("p").store.get_exact("x", 1) == 0


class TestMixedTrafficAtomicity:
    def test_corrections_preserve_atomic_visibility(self):
        """With corrections assigning the same value on every node of an
        entity, the per-key equality oracle still applies: no read may
        observe a half-applied correction."""
        node_ids = ["n0", "n1", "n2", "n3"]
        system = ThreeVSystem(node_ids, seed=6, allow_noncommuting=True)
        config = RecordingConfig(nodes=node_ids, entities=8, span=3,
                                 amount_mode="bitmask")
        workload = RecordingWorkload(config, RngRegistry(7))
        workload.install(system)
        arrivals = RngRegistry(8)
        drive(system, poisson_arrivals(arrivals, "u", 5.0, 25.0),
              workload.draw_recording, workload.build_recording)
        drive(system, poisson_arrivals(arrivals, "r", 4.0, 25.0),
              workload.draw_inquiry, workload.build_inquiry)
        drive(system, poisson_arrivals(arrivals, "c", 0.4, 25.0),
              workload.draw_correction, workload.build_correction)
        system.sim.schedule(12.0, system.advance_versions)
        system.run(until=25.0)
        system.run_until_quiet()
        nc = [r for r in system.history.txns.values()
              if r.kind == "noncommuting"]
        assert nc
        violations = atomic_visibility_violations(system.history)
        assert violations == []


class TestScaleSmoke:
    def test_thirty_two_nodes_stay_consistent(self):
        from repro.workloads import run_recording_experiment

        result = run_recording_experiment(
            "3v", nodes=32, duration=20.0, update_rate=40.0,
            inquiry_rate=15.0, audit_rate=0.5, entities=200, span=2,
            seed=12, amount_mode="bitmask",
        )
        report = audit(result.history, result.workload, check_snapshots=True)
        assert report.reads_checked > 200
        assert report.clean
        for node in result.system.nodes.values():
            assert node.store.max_live_versions <= 3
