"""Integration tests for the NC3V extension (Section 5)."""

import pytest

from repro.core import ThreeVSystem
from repro.net import LinkLatency, constant_latency
from repro.sim import Constant
from repro.storage import Assign, Increment
from repro.txn import ReadOp, SubtxnSpec, TransactionSpec, TxnKind, WriteOp


def nc_system(**kwargs):
    kwargs.setdefault("latency", constant_latency(1.0))
    system = ThreeVSystem(["p", "q"], seed=7, allow_noncommuting=True, **kwargs)
    system.load("p", "x", 100)
    system.load("q", "y", 200)
    return system


def nc_assign(name, x_value=1, with_child=False, y_value=2):
    children = []
    if with_child:
        children = [SubtxnSpec(node="q", ops=[WriteOp("y", Assign(y_value))])]
    return TransactionSpec(
        name=name,
        root=SubtxnSpec(node="p", ops=[WriteOp("x", Assign(x_value))],
                        children=children),
    )


def wb_update(name, delta=10):
    return TransactionSpec(
        name=name,
        root=SubtxnSpec(node="p", ops=[WriteOp("x", Increment(delta))]),
    )


class TestBasicNC:
    def test_single_node_assign_commits(self):
        system = nc_system()
        system.submit(nc_assign("k1", x_value=555))
        system.run_until_quiet()
        record = system.history.txn("k1")
        assert record.kind == TxnKind.NONCOMMUTING
        assert not record.aborted
        assert system.node("p").store.get_exact("x", 1) == 555

    def test_distributed_assign_commits_via_2pc(self):
        system = nc_system()
        system.submit(nc_assign("k1", x_value=5, with_child=True, y_value=6))
        system.run_until_quiet()
        assert not system.history.txn("k1").aborted
        assert system.node("p").store.get_exact("x", 1) == 5
        assert system.node("q").store.get_exact("y", 1) == 6
        # 2PC control traffic happened.
        assert system.network.stats.commit_messages > 0

    def test_nc_has_remote_wait_wb_does_not(self):
        system = nc_system()
        system.submit(nc_assign("k1", with_child=True))
        system.submit(wb_update("w1"))
        system.run_until_quiet()
        assert system.history.txn("k1").remote_wait > 0.0
        assert system.history.txn("w1").remote_wait == 0.0

    def test_two_nc_txns_serialize(self):
        system = nc_system()
        system.submit_at(1.0, nc_assign("first", x_value=1))
        system.submit_at(1.0, nc_assign("second", x_value=2))
        system.run_until_quiet()
        survivors = [
            r for r in system.history.txns.values() if not r.aborted
        ]
        # Both may commit (serialized) or the younger may die; either way
        # the final value is one of the assigned ones, not a mash-up.
        assert system.node("p").store.get_exact("x", 1) in (1, 2)
        assert len(survivors) >= 1

    def test_advancement_still_works_with_nc_traffic(self):
        system = nc_system()
        system.submit(nc_assign("k1", x_value=7))
        system.run_until_quiet()
        system.advance_versions()
        system.run_until_quiet()
        assert system.read_version == 1
        assert system.value_at("p", "x") == 7


class TestMixing:
    def test_wb_update_waits_for_nc_lock(self):
        """A commuting update conflicts with an NC writer's NW lock —
        performance suffers only when non-commuting work is present."""
        system = nc_system(latency=constant_latency(4.0))
        # NC txn with a remote child holds its NW lock on x for the whole
        # 2PC (several 4.0 hops).
        system.submit_at(1.0, nc_assign("k1", with_child=True))
        system.submit_at(2.0, wb_update("w1"))
        system.run_until_quiet()
        w1 = system.history.txn("w1")
        assert not w1.aborted
        assert w1.waits.get("lock", 0.0) > 0.0
        # Serialization: the increment landed on top of the assign.
        assert system.node("p").store.get_exact("x", 1) == 11

    def test_pure_wb_traffic_never_lock_waits(self):
        system = nc_system()
        for k in range(20):
            system.submit_at(0.1 * k, wb_update(f"w{k}", delta=1))
        system.run_until_quiet()
        for k in range(20):
            assert system.history.txn(f"w{k}").waits.get("lock", 0.0) == 0.0
        assert system.node("p").store.get_exact("x", 1) == 120

    def test_read_only_txns_take_no_locks(self):
        system = nc_system(latency=constant_latency(4.0))
        system.submit_at(1.0, nc_assign("k1", with_child=True))
        reader = TransactionSpec(
            name="r1", root=SubtxnSpec(node="p", ops=[ReadOp("x")])
        )
        system.submit_at(2.0, reader)
        system.run_until_quiet()
        r1 = system.history.txn("r1")
        assert r1.total_wait == 0.0
        assert r1.reads == [("x", 100)]  # version 0, untouched by the NC txn


class TestVersionGate:
    def test_nc_gated_during_advancement(self):
        """An NC root arriving between phases 1 and 3 sees vu == vr + 2
        and must wait for the read-version switch."""
        system = nc_system(
            latency=LinkLatency(
                links={("coordinator", "p"): Constant(0.5),
                       ("coordinator", "q"): Constant(0.5)},
                default=Constant(1.0),
            ),
            poll_interval=2.0,
        )
        system.sim.schedule(1.0, system.advance_versions)
        # Phase 1 completes ~2.0; phase 2 poll delays phase 3 past 3.0.
        system.submit_at(2.2, nc_assign("gated", x_value=9))
        system.run_until_quiet()
        record = system.history.txn("gated")
        assert not record.aborted
        assert record.version == 2
        assert record.waits.get("version-gate", 0.0) > 0.0
        assert system.node("p").store.get_exact("x", 2) == 9

    def test_nc_not_gated_in_steady_state(self):
        system = nc_system()
        system.submit(nc_assign("k1"))
        system.run_until_quiet()
        assert system.history.txn("k1").waits.get("version-gate", 0.0) == 0.0


class TestVersionConflictAbort:
    def test_straggler_nc_child_aborts_on_newer_version(self):
        """An NC child (version 1) arrives at q after an advancement let a
        well-behaved transaction write y(2): step 4 aborts the NC
        transaction, and its root write is rolled back at p."""
        system = ThreeVSystem(
            ["p", "q"], seed=7, allow_noncommuting=True,
            latency=LinkLatency(
                links={("p", "q"): Constant(15.0)},
                default=Constant(1.0),
            ),
        )
        system.load("p", "x", 100)
        system.load("q", "y", 200)
        system.submit_at(1.0, nc_assign("K", x_value=9, with_child=True))
        system.sim.schedule(2.0, system.advance_versions)
        wb_at_q = TransactionSpec(
            name="w2",
            root=SubtxnSpec(node="q", ops=[WriteOp("y", Increment(5))]),
        )
        system.submit_at(6.0, wb_at_q)  # version 2 write creates y(2)
        system.run_until_quiet()
        record = system.history.txn("K")
        assert record.aborted
        # Root's assign rolled back: x(1) restored to the copied base.
        assert system.node("p").store.get_exact("x", 1) == 100
        # The well-behaved write survived.
        assert system.node("q").store.get_exact("y", 2) == 205
        assert system.node("p").nc3v.aborts_version_conflict == 0
        assert system.node("q").nc3v.aborts_version_conflict == 1

    def test_counters_converge_after_nc_abort(self):
        system = ThreeVSystem(
            ["p", "q"], seed=7, allow_noncommuting=True,
            latency=LinkLatency(
                links={("p", "q"): Constant(15.0)},
                default=Constant(1.0),
            ),
        )
        system.load("p", "x", 100)
        system.load("q", "y", 200)
        system.submit_at(1.0, nc_assign("K", x_value=9, with_child=True))
        system.sim.schedule(2.0, system.advance_versions)
        system.run_until_quiet()
        assert system.read_version == 1  # advancement completed
        # A later advancement also completes (counters are clean).
        system.advance_versions()
        system.run_until_quiet()
        assert system.read_version == 2


class TestUnitRules:
    def test_exists_above_triggers_abort(self):
        """Direct check of the step-4 rule."""
        system = nc_system()
        system.node("p").store.write("x", 5, Increment(1))
        system.submit(nc_assign("K", x_value=1))
        system.run_until_quiet()
        assert system.history.txn("K").aborted
        assert system.node("p").nc3v.aborts_version_conflict == 1

    def test_nc_txn_rejected_without_flag(self):
        from repro.errors import ProtocolError

        system = ThreeVSystem(["p", "q"], seed=1)
        with pytest.raises(ProtocolError):
            system.submit(nc_assign("K"))
