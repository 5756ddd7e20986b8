"""Unit tests for the transaction model: specs, index, history."""

import pytest

from repro.errors import InvalidTransactionSpec
from repro.storage import Assign, Increment, Record
from repro.txn import (
    History,
    ReadOp,
    SubtxnInstance,
    SubtxnSpec,
    TransactionSpec,
    TxnIndex,
    TxnKind,
    WaitReason,
    WriteOp,
    subtxn_id,
)


def tree(name="t"):
    return TransactionSpec(
        name=name,
        root=SubtxnSpec(
            node="a",
            ops=[WriteOp("x", Increment(1))],
            children=[
                SubtxnSpec(node="b", ops=[ReadOp("y")], label="b"),
                SubtxnSpec(
                    node="c",
                    ops=[WriteOp("z", Record("obs"))],
                    children=[SubtxnSpec(node="a", ops=[])],
                ),
            ],
        ),
    )


class TestClassification:
    def test_update_with_commuting_ops_is_well_behaved(self):
        spec = tree()
        assert not spec.is_read_only
        assert spec.is_well_behaved

    def test_read_only_detection(self):
        spec = TransactionSpec(
            name="r",
            root=SubtxnSpec(
                node="a", ops=[ReadOp("x")],
                children=[SubtxnSpec(node="b", ops=[ReadOp("y")])],
            ),
        )
        assert spec.is_read_only
        assert spec.is_well_behaved

    def test_assign_makes_non_well_behaved(self):
        spec = TransactionSpec(
            name="nc", root=SubtxnSpec(node="a", ops=[WriteOp("x", Assign(1))])
        )
        assert not spec.is_well_behaved
        assert not spec.is_read_only

    def test_nodes_and_keys(self):
        spec = tree()
        assert spec.nodes == {"a", "b", "c"}
        assert spec.keys_written == {"x", "z"}
        assert spec.keys_read == {"y"}
        assert spec.subtxn_count() == 4


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(InvalidTransactionSpec):
            TransactionSpec(name="", root=SubtxnSpec(node="a"))

    def test_empty_node_rejected(self):
        with pytest.raises(InvalidTransactionSpec):
            TransactionSpec(name="t", root=SubtxnSpec(node=""))

    def test_shared_subtree_rejected(self):
        shared = SubtxnSpec(node="b")
        with pytest.raises(InvalidTransactionSpec):
            TransactionSpec(
                name="t",
                root=SubtxnSpec(node="a", children=[shared, shared]),
            )

    def test_bad_op_type_rejected(self):
        with pytest.raises(InvalidTransactionSpec):
            TransactionSpec(
                name="t", root=SubtxnSpec(node="a", ops=["not-an-op"])
            )

    def test_read_only_abort_rejected(self):
        with pytest.raises(InvalidTransactionSpec):
            TransactionSpec(
                name="t",
                root=SubtxnSpec(node="a", ops=[ReadOp("x")], abort_here=True),
            )


class TestIndex:
    def test_ids_with_labels_and_positions(self):
        index = TxnIndex(tree())
        assert set(index.by_id) == {"t", "tb", "t.1", "t.1.0"}
        assert index.parent["tb"] == "t"
        assert index.parent["t.1.0"] == "t.1"
        assert index.children["t"] == ["tb", "t.1"]
        assert index.node_of("t.1.0") == "a"

    def test_neighbours(self):
        index = TxnIndex(tree())
        assert set(index.neighbours("t")) == {"tb", "t.1"}
        assert set(index.neighbours("t.1")) == {"t.1.0", "t"}
        assert set(index.neighbours("tb")) == {"t"}

    def test_duplicate_labels_rejected(self):
        spec = TransactionSpec(
            name="t",
            root=SubtxnSpec(
                node="a",
                children=[
                    SubtxnSpec(node="b", label="x"),
                    SubtxnSpec(node="c", label="x"),
                ],
            ),
        )
        with pytest.raises(InvalidTransactionSpec):
            TxnIndex(spec)

    def test_subtxn_id_helper(self):
        child_with_label = SubtxnSpec(node="b", label="q")
        child_plain = SubtxnSpec(node="b")
        assert subtxn_id("i", child_with_label, 0) == "iq"
        assert subtxn_id("i", child_plain, 2) == "i.2"


class TestInstanceDerivedFields:
    """`spec`, `is_root` and `instance_key` were properties recomputed on
    every read; they are fields now.  The old expressions are the oracle."""

    @staticmethod
    def reference(instance):
        return (
            instance.index.by_id[instance.sid],
            not instance.compensating
            and instance.sid == instance.index.root_id,
            (instance.txn.name, instance.sid, instance.compensating),
        )

    def envelopes(self):
        spec = tree()
        index = TxnIndex(spec)
        root = SubtxnInstance(txn=spec, index=index, sid=index.root_id,
                              version=None, source_node="a")
        child = root.child_instance("t.1", "a")
        grandchild = child.child_instance("t.1.0", "c")
        return {
            "root": root,
            "child": child,
            "grandchild": grandchild,
            "compensator": grandchild.compensator("t.1", "a"),
            # A compensator aimed at the root is still not *the* root.
            "root-compensator": child.compensator("t", "c"),
        }

    def test_fields_equal_the_old_property_expressions(self):
        for name, instance in self.envelopes().items():
            derived = (instance.spec, instance.is_root,
                       instance.instance_key)
            assert derived == self.reference(instance), name
            assert instance.spec is instance.index.by_id[instance.sid]

    def test_only_the_plain_root_is_root(self):
        roots = [name for name, instance in self.envelopes().items()
                 if instance.is_root]
        assert roots == ["root"]

    def test_assigning_the_version_leaves_them_alone(self):
        root = self.envelopes()["root"]
        before = self.reference(root)
        root.version = 7  # what admit_root does
        assert (root.spec, root.is_root, root.instance_key) == before
        assert root.child_instance("tb", "a").version == 7

    def test_derived_fields_stay_out_of_repr_and_equality(self):
        envelopes = self.envelopes()
        assert "instance_key" not in repr(envelopes["root"])
        assert envelopes["child"] == envelopes["root"].child_instance(
            "t.1", "a")


class TestHistory:
    def test_lifecycle(self):
        history = History()
        record = history.begin_txn("t1", TxnKind.UPDATE, 1, 5.0, "a")
        history.locally_committed("t1", 7.0)
        history.globally_completed("t1", 9.0)
        assert record.local_latency == 2.0
        assert record.global_latency == 4.0
        assert history.count(TxnKind.UPDATE) == 1
        assert history.count(TxnKind.READ) == 0

    def test_duplicate_name_rejected(self):
        history = History()
        history.begin_txn("t1", TxnKind.UPDATE, 1, 0.0, "a")
        with pytest.raises(ValueError):
            history.begin_txn("t1", TxnKind.UPDATE, 1, 0.0, "a")

    def test_local_commit_not_overwritten(self):
        history = History()
        history.begin_txn("t1", TxnKind.UPDATE, 1, 0.0, "a")
        history.locally_committed("t1", 3.0)
        history.locally_committed("t1", 8.0)
        assert history.txn("t1").local_commit_time == 3.0

    def test_abort_bookkeeping(self):
        history = History()
        history.begin_txn("t1", TxnKind.UPDATE, 1, 0.0, "a")
        history.aborted("t1", 4.0, "requested")
        history.compensated("t1")
        record = history.txn("t1")
        assert record.aborted
        assert record.compensated
        assert record.abort_reason == "requested"
        assert history.committed_txns() == []
        assert len(history.aborted_txns()) == 1

    def test_wait_accumulation(self):
        history = History()
        history.begin_txn("t1", TxnKind.UPDATE, 1, 0.0, "a")
        history.waited("t1", WaitReason.LOCK, 2.0)
        history.waited("t1", WaitReason.LOCK, 3.0)
        history.waited("t1", WaitReason.EXECUTOR, 1.0)
        history.waited("t1", WaitReason.REMOTE, 0.0)  # ignored
        record = history.txn("t1")
        assert record.waits == {"lock": 5.0, "executor": 1.0}
        assert record.total_wait == 6.0
        assert record.remote_wait == 0.0
        assert history.wait_episodes == {"lock": 2, "executor": 1}

    def test_remote_wait_aggregates_remote_reasons(self):
        history = History()
        history.begin_txn("t1", TxnKind.NONCOMMUTING, 1, 0.0, "a")
        history.waited("t1", WaitReason.REMOTE, 2.0)
        history.waited("t1", WaitReason.VERSION_GATE, 1.0)
        history.waited("t1", WaitReason.ADVANCEMENT, 0.5)
        history.waited("t1", WaitReason.EXECUTOR, 9.0)
        assert history.txn("t1").remote_wait == 3.5

    def test_detail_off_skips_events(self):
        from repro.txn import ReadEvent, WriteEvent

        history = History(detail=False)
        history.begin_txn("t1", TxnKind.READ, 0, 0.0, "a")
        history.read(ReadEvent(1.0, "t1", "t1", "a", "x", 0, 0, 42))
        history.wrote(WriteEvent(1.0, "t1", "t1", "a", "x", 0, 1, None))
        assert history.read_events == []
        assert history.write_events == []
        # But the per-txn read values are still tracked.
        assert history.txn("t1").reads == [("x", 42)]
