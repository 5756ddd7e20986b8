"""Unit tests for the baselines' shared system surface and message envelope."""

import pytest

from repro.baselines import NoCoordSystem
from repro.errors import ProtocolError
from repro.net.message import Message, MessageKind
from repro.runtime import System
from repro.storage import Increment
from repro.txn import ReadOp, SubtxnSpec, TransactionSpec, WriteOp


class TestBaselineSystemSurface:
    def test_empty_node_list_rejected(self):
        with pytest.raises(ProtocolError):
            NoCoordSystem([])

    def test_unknown_node_rejected(self):
        system = NoCoordSystem(["a"])
        with pytest.raises(ProtocolError):
            system.node("zz")

    def test_submit_at_schedules_future(self):
        system = NoCoordSystem(["a"], seed=1)
        system.load("a", "x", 0)
        system.submit_at(
            5.0,
            TransactionSpec(
                name="t",
                root=SubtxnSpec(node="a", ops=[WriteOp("x", Increment(1))]),
            ),
        )
        system.run(until=4.0)
        assert "t" not in system.history.txns
        system.run_until_quiet()
        assert system.history.txn("t").submit_time == 5.0
        assert system.submitted_count == 1

    def test_run_until_quiet_limit(self):
        from repro.net import constant_latency

        system = NoCoordSystem(["a", "b"], seed=1,
                               latency=constant_latency(100.0))
        system.load("b", "x", 0)
        system.submit(TransactionSpec(
            name="t",
            root=SubtxnSpec(node="a", children=[
                SubtxnSpec(node="b", ops=[WriteOp("x", Increment(1))])]),
        ))
        with pytest.raises(ProtocolError):
            system.run_until_quiet(limit=10.0)

    def test_value_at_default_read_version(self):
        system = NoCoordSystem(["a"], seed=1)
        system.load("a", "x", 42)
        assert system.value_at("a", "x") == 42
        assert system.value_at("a", "missing") is None

    def test_stop_policy_is_noop(self):
        NoCoordSystem(["a"]).stop_policy()

    def test_generic_base_node_handles_nothing_extra(self):
        system = System(["a"], seed=1)
        system.network.register("outsider")
        system.network.send("outsider", "a", MessageKind.PREPARE, "x")
        with pytest.raises(ProtocolError):
            system.run_until_quiet()

    def test_multi_visit_tree_on_baseline(self):
        """The tree model (revisiting nodes) works on baselines too."""
        system = NoCoordSystem(["a", "b"], seed=1)
        system.load("a", "x", 0)
        system.load("b", "y", 0)
        spec = TransactionSpec(
            name="t",
            root=SubtxnSpec(
                node="a", ops=[WriteOp("x", Increment(1))],
                children=[SubtxnSpec(
                    node="b", ops=[WriteOp("y", Increment(1))],
                    children=[SubtxnSpec(node="a",
                                         ops=[WriteOp("x", Increment(10))])],
                )],
            ),
        )
        system.submit(spec)
        system.run_until_quiet()
        assert system.value_at("a", "x") == 11
        assert system.value_at("b", "y") == 1
        assert system.history.txn("t").global_complete_time is not None


class TestMessageEnvelope:
    def test_ids_are_unique_and_increasing(self):
        a = Message(src="x", dst="y", kind=MessageKind.SUBTXN_REQUEST)
        b = Message(src="x", dst="y", kind=MessageKind.SUBTXN_REQUEST)
        assert b.message_id > a.message_id

    def test_user_traffic_classification(self):
        assert Message(src="a", dst="b",
                       kind=MessageKind.COMPENSATION).is_user_traffic
        assert not Message(src="a", dst="b",
                           kind=MessageKind.PREPARE).is_user_traffic

    def test_kind_categories_are_disjoint(self):
        assert not (MessageKind.USER_KINDS & MessageKind.CONTROL_KINDS)
        assert not (MessageKind.USER_KINDS & MessageKind.COMMIT_KINDS)
        assert not (MessageKind.CONTROL_KINDS & MessageKind.COMMIT_KINDS)

    def test_repr_mentions_route(self):
        message = Message(src="a", dst="b", kind=MessageKind.SUBTXN_REQUEST)
        assert "a->b" in repr(message)

    def test_read_only_audit_query_on_baseline(self):
        system = NoCoordSystem(["a"], seed=1)
        system.load("a", "x", 9)
        system.submit(TransactionSpec(
            name="q", root=SubtxnSpec(node="a", ops=[ReadOp("x")]),
        ))
        system.run_until_quiet()
        assert system.history.txn("q").reads == [("x", 9)]
