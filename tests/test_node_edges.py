"""Edge cases of the 3V node: routing-only subtransactions, fresh keys,
concurrency knobs, FIFO links, and lightweight histories."""

import pytest

from repro.core import NodeConfig, ThreeVSystem
from repro.errors import ProtocolError
from repro.net import constant_latency
from repro.sim import Constant
from repro.storage import Increment
from repro.txn import (
    History,
    ReadOp,
    SubtxnSpec,
    TransactionSpec,
    WriteOp,
)


class TestFrontEndPattern:
    def test_empty_root_subtransaction_routes_children(self):
        """Figure 1's front-end: 'the empty subtransaction in the
        front-end system functions as the root subtransaction'."""
        system = ThreeVSystem(["front-end", "radiology", "pediatrics"], seed=1)
        system.load("radiology", "x", 0)
        system.load("pediatrics", "y", 0)
        spec = TransactionSpec(
            name="visit",
            root=SubtxnSpec(
                node="front-end",
                ops=[],  # pure router
                children=[
                    SubtxnSpec(node="radiology",
                               ops=[WriteOp("x", Increment(1))]),
                    SubtxnSpec(node="pediatrics",
                               ops=[WriteOp("y", Increment(2))]),
                ],
            ),
        )
        system.submit(spec)
        system.run_until_quiet()
        assert system.node("radiology").store.get_exact("x", 1) == 1
        assert system.node("pediatrics").store.get_exact("y", 1) == 2
        record = system.history.txn("visit")
        assert record.global_complete_time is not None
        assert record.remote_wait == 0.0

    def test_front_end_counters_converge(self):
        system = ThreeVSystem(["fe", "a"], seed=1)
        system.load("a", "k", 0)
        spec = TransactionSpec(
            name="t",
            root=SubtxnSpec(node="fe", ops=[], children=[
                SubtxnSpec(node="a", ops=[WriteOp("k", Increment(1))]),
            ]),
        )
        system.submit(spec)
        system.run_until_quiet()
        system.advance_versions()
        system.run_until_quiet()
        assert system.read_version == 1


class TestFreshKeys:
    def test_update_creates_brand_new_item(self):
        """A recording of a brand-new entity: no version-0 copy exists;
        the item is born directly in the update version."""
        system = ThreeVSystem(["p"], seed=1)
        spec = TransactionSpec(
            name="t",
            root=SubtxnSpec(node="p", ops=[WriteOp("new-key", Increment(7))]),
        )
        system.submit(spec)
        system.run_until_quiet()
        assert system.node("p").store.versions("new-key") == [1]
        assert system.node("p").store.get_exact("new-key", 1) == 7
        # Not visible to readers until an advancement.
        assert system.value_at("p", "new-key") is None
        system.advance_versions()
        system.run_until_quiet()
        assert system.value_at("p", "new-key") == 7

    def test_read_of_absent_key_returns_none(self):
        system = ThreeVSystem(["p"], seed=1)
        spec = TransactionSpec(
            name="q", root=SubtxnSpec(node="p", ops=[ReadOp("ghost")])
        )
        system.submit(spec)
        system.run_until_quiet()
        assert system.history.txn("q").reads == [("ghost", None)]


class TestExecutorKnobs:
    def _burst_system(self, capacity):
        system = ThreeVSystem(
            ["p"], seed=1,
            node_config=NodeConfig(op_service=Constant(0.5),
                                   executor_capacity=capacity),
        )
        system.load("p", "x", 0)
        for index in range(4):
            system.submit(TransactionSpec(
                name=f"t{index}",
                root=SubtxnSpec(node="p", ops=[WriteOp("x", Increment(1))]),
            ))
        system.run_until_quiet()
        return system

    def test_serial_executor_queues(self):
        system = self._burst_system(capacity=1)
        total_executor_wait = sum(
            record.waits.get("executor", 0.0)
            for record in system.history.txns.values()
        )
        # 4 jobs of 0.5 each, serial: waits 0 + .5 + 1 + 1.5 = 3.0.
        assert total_executor_wait == pytest.approx(3.0)

    def test_wider_executor_reduces_queueing(self):
        system = self._burst_system(capacity=4)
        total_executor_wait = sum(
            record.waits.get("executor", 0.0)
            for record in system.history.txns.values()
        )
        assert total_executor_wait == pytest.approx(0.0)
        # Commutativity: final value identical either way.
        assert system.node("p").store.get_exact("x", 1) == 4

    def test_executor_stats_exposed(self):
        system = self._burst_system(capacity=1)
        assert system.node("p").executor.total_waits == 3
        assert system.node("p").executor.total_wait_time == pytest.approx(3.0)


class TestTransportVariants:
    def test_detail_off_keeps_lifecycle_metrics(self):
        system = ThreeVSystem(["p", "q"], seed=1,
                              history=History(events=()))
        system.load("p", "x", 0)
        system.load("q", "y", 0)
        spec = TransactionSpec(
            name="t",
            root=SubtxnSpec(node="p", ops=[WriteOp("x", Increment(1))],
                            children=[SubtxnSpec(
                                node="q", ops=[WriteOp("y", Increment(1))])]),
        )
        system.submit(spec)
        system.run_until_quiet()
        assert system.history.write_events == []
        record = system.history.txn("t")
        assert record.local_latency is not None
        assert record.global_latency is not None


class TestProtocolErrors:
    def test_unexpected_message_kind_raises(self):
        from repro.net.message import Message

        system = ThreeVSystem(["p"], seed=1)
        system.network.register("intruder")
        system.network.send("intruder", "p", "nonsense-kind")
        with pytest.raises(ProtocolError):
            system.run_until_quiet()

    def test_submit_non_root_rejected(self):
        from repro.txn import SubtxnInstance

        system = ThreeVSystem(["p", "q"], seed=1)
        spec = TransactionSpec(
            name="t",
            root=SubtxnSpec(node="p", children=[SubtxnSpec(node="q")]),
        )
        root = SubtxnInstance(spec, "t", spec.root, None, "p")
        [(sid, child_spec, _node)] = root.child_targets()
        child = root.child(sid, child_spec, "p")
        with pytest.raises(ProtocolError):
            system.node("q").submit(child)

    def test_completion_notice_delivered_twice_rejected(self):
        """The second copy of a child's notice names a parent that is no
        longer live on the node."""
        from repro.net.message import Message, MessageKind

        system = ThreeVSystem(["p", "q"], seed=1)
        notices = []
        node_p = system.node("p")
        dispatch = node_p._dispatch

        def keep_notices(message):
            if message.kind == MessageKind.COMPLETION_NOTICE:
                notices.append(message)
            dispatch(message)

        node_p._mailbox.consume(keep_notices)
        system.submit(TransactionSpec(
            name="t",
            root=SubtxnSpec(node="p", ops=[WriteOp("x", Increment(1))],
                            children=[SubtxnSpec(
                                node="q", ops=[WriteOp("y", Increment(1))])]),
        ))
        system.run_until_quiet()
        assert system.history.txn("t").global_latency is not None
        [notice] = notices
        again = Message(src="q", dst="p", kind=notice.kind,
                        payload=notice.payload, sent_at=system.sim.now,
                        delivered_at=system.sim.now)
        with pytest.raises(ProtocolError, match="unknown instance"):
            node_p._dispatch(again)

    def test_reads_spanning_nodes_with_stale_vr(self):
        """A query child carries the root's vr even to nodes that have
        not yet processed the read-advance message."""
        from repro.net import PartitionedLatency, constant_latency

        latency = PartitionedLatency(
            base=constant_latency(0.5),
            stalled_links=[("coordinator", "q")],
            start=3.0,  # after phase 1's notice, before phase 3's
            end=40.0,
        )
        system = ThreeVSystem(["p", "q"], seed=1, latency=latency,
                              poll_interval=0.25)
        system.load("p", "x", 1)
        system.load("q", "y", 2)
        # Write both items at version 1, then advance.
        system.submit(TransactionSpec(
            name="w",
            root=SubtxnSpec(node="p", ops=[WriteOp("x", Increment(10))],
                            children=[SubtxnSpec(
                                node="q", ops=[WriteOp("y", Increment(10))])]),
        ))
        system.run(until=0.5)
        system.advance_versions()
        # q's read-advance is held by the partition; p flips quickly.
        system.run(until=20.0)
        assert system.node("p").vr == 1
        assert system.node("q").vr == 0
        # A query rooted at p carries version 1 to q and reads y(1) there
        # even though q's own vr is still 0.
        system.submit(TransactionSpec(
            name="r",
            root=SubtxnSpec(node="p", ops=[ReadOp("x")],
                            children=[SubtxnSpec(node="q",
                                                 ops=[ReadOp("y")])]),
        ))
        system.run_until_quiet()
        assert dict(system.history.txn("r").reads) == {"x": 11, "y": 12}
