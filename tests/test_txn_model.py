"""Unit tests for the transaction model: specs, index, history."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert index.by_id["t.1.0"].node == "a"

    def test_neighbours(self):
        index = TxnIndex(tree())
        assert set(index.neighbours("t")) == {"tb", "t.1"}
        assert set(index.neighbours("t.1")) == {"t.1.0", "t"}
        assert set(index.neighbours("tb")) == {"t"}

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidTransactionSpec, match="'tx'"):
            TransactionSpec(
                name="t",
                root=SubtxnSpec(
                    node="a",
                    children=[
                        SubtxnSpec(node="b", label="x"),
                        SubtxnSpec(node="c", label="x"),
                    ],
                ),
            )

    def test_label_colliding_with_a_positional_id_rejected(self):
        """``"x.0"`` at depth one and the unlabelled first child of ``"x"``
        at depth two both get the id ``tx.0``."""
        with pytest.raises(InvalidTransactionSpec, match="'tx.0'"):
            TransactionSpec(
                name="t",
                root=SubtxnSpec(
                    node="a",
                    children=[
                        SubtxnSpec(node="b", label="x.0"),
                        SubtxnSpec(node="c", label="x",
                                   children=[SubtxnSpec(node="d")]),
                    ],
                ),
            )

    def test_subtxn_id_helper(self):
        child_with_label = SubtxnSpec(node="b", label="q")
        child_plain = SubtxnSpec(node="b")
        assert subtxn_id("i", child_with_label, 0) == "iq"
        assert subtxn_id("i", child_plain, 2) == "i.2"


class TestInstanceDerivedFields:
    """`spec` and `is_root` were properties over the transaction index,
    recomputed on every read; they are fields set once by the constructor.
    The old expressions, over a ``TxnIndex``, are the oracle."""

    @staticmethod
    def reference(instance):
        index = TxnIndex(instance.txn)
        return (
            index.by_id[instance.sid],
            not instance.compensating and instance.sid == index.root_id,
        )

    def envelopes(self):
        spec = tree()
        root = SubtxnInstance(spec, "t", spec.root, None, "a")
        child = root.child("t.1", spec.root.children[1], "a")
        grandchild = child.child(
            "t.1.0", spec.root.children[1].children[0], "c")
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
            assert (instance.spec, instance.is_root) == self.reference(
                instance), name

    def test_only_the_plain_root_is_root(self):
        roots = [name for name, instance in self.envelopes().items()
                 if instance.is_root]
        assert roots == ["root"]

    def test_assigning_the_version_leaves_them_alone(self):
        root = self.envelopes()["root"]
        before = self.reference(root)
        root.version = 7  # what admit_root does
        assert (root.spec, root.is_root) == before
        assert root.child("tb", tree().root.children[0], "a").version == 7

    def test_derived_fields_stay_out_of_repr_and_equality(self):
        """Equality is identity, so a node can keep its live envelopes in
        a set: two envelopes for one subtransaction are two members."""
        envelopes = self.envelopes()
        child = envelopes["child"]
        twin = envelopes["root"].child("t.1", child.spec, "a")
        assert child != twin
        assert len({child, twin, *envelopes.values()}) == len(envelopes) + 1


class TestChildTargets:
    """The one child enumeration both runtimes dispatch from."""

    def test_targets_follow_the_spec_and_the_overrides(self):
        spec = tree()
        root = SubtxnInstance(spec, "t", spec.root, None, "a",
                              overrides={"t.1": "d"})
        assert [(sid, node) for sid, _child, node in root.child_targets()] \
            == [("tb", "b"), ("t.1", "d")]
        [(sid, child_spec, node)] = root.child(
            "t.1", spec.root.children[1], "a").child_targets()
        assert (sid, child_spec.node, node) == ("t.1.0", "a", "a")

    def test_compensation_index_is_built_once_and_travels(self):
        spec = tree()
        child = SubtxnInstance(spec, "t", spec.root, None, "a").child(
            "t.1", spec.root.children[1], "a")
        assert child.tree is None
        compensator = child.compensator("t", "c")
        assert compensator.tree is child.tree is not None
        assert compensator.compensator("tb", "a").tree is child.tree
        assert not any(isinstance(value, TxnIndex)
                       for value in vars(spec).values())


#: Random unlabelled trees: up to four levels, up to four children each.
unlabelled_trees = st.recursive(
    st.builds(SubtxnSpec, node=st.sampled_from("abcd")),
    lambda children: st.builds(
        SubtxnSpec, node=st.sampled_from("abcd"),
        children=st.lists(children, max_size=4)),
    max_leaves=24,
)


def dispatched(spec):
    """``(sid, spec)`` of every envelope the runtime would dispatch, walking
    the child targets from the root."""
    found = []
    pending = [SubtxnInstance(spec, spec.name, spec.root, None,
                              spec.root.node)]
    while pending:
        instance = pending.pop()
        found.append((instance.sid, instance.spec))
        pending.extend(instance.child(sid, child, node)
                       for sid, child, node in instance.child_targets())
    return found


@given(unlabelled_trees)
@settings(max_examples=60, deadline=None)
def test_dispatched_ids_are_unique_and_match_the_index(root):
    spec = TransactionSpec(name="t", root=root)
    found = dispatched(spec)
    ids = [sid for sid, _spec in found]
    assert len(set(ids)) == len(ids) == spec.subtxn_count()
    by_id = TxnIndex(spec).by_id
    assert set(ids) == set(by_id)
    assert all(by_id[sid] is subtxn for sid, subtxn in found)


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

    def test_retiring_history_refuses_write_events(self):
        with pytest.raises(ValueError, match="write"):
            History(retain=False)
        with pytest.raises(ValueError, match="write"):
            History(events=("read", "write"), retain=False)
        assert History(events=("read",), retain=False).keeps_reads

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ValueError, match="wait"):
            History(events=("read", "wait"))

    def test_write_events_need_read_events(self):
        with pytest.raises(ValueError, match="read"):
            History(events=("write",))
        assert History(events=("read", "write")).keeps_writes

    def test_detail_off_skips_events(self):
        history = History(events=())
        history.begin_txn("t1", TxnKind.READ, 0, 0.0, "a")
        history.read(1.0, "t1", "t1", "a", "x", 0, 0, 42)
        assert history.read_events == []
        # Executors ask before they call ``wrote``.
        assert not history.keeps_writes
        # Nor are the per-txn read values: the record holds no container.
        assert history.txn("t1").reads == ()
