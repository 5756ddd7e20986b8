"""The class-aware recording builders against the ones they replaced.

``tests/reference_workload.py`` keeps the old builders verbatim: trees
grouped through ``_write_groups`` and classified by ``validate()``.  For
every placement and workload axis the new builders must emit the same
trees (shape, nodes, labels, ``alternates``, ``abort_here``, ops and
operations), state the class ``validate()`` would derive, and leave the
workload stream in the same state.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.storage.values import Assign, Increment, Record
from repro.sim import RngRegistry
from repro.txn import TransactionSpec, WriteOp
from repro.workloads import RecordingConfig, RecordingWorkload

from tests.reference_workload import ReferenceRecordingWorkload

NODES = [f"n{index}" for index in range(5)]
BUILDS = 60
#: abort_fraction x with_observations x zipf x amount_mode x seed.
AXES = list(itertools.product(
    (0.0, 0.5), (False, True), (0.0, 1.1), ("money", "bitmask"), (0, 3, 11),
))


def operation_state(operation):
    """What an operation does (``Assign`` compares by identity)."""
    return type(operation), vars(operation)


def assert_same_tree(new, old, where):
    assert type(new) is type(old)
    assert (new.node, new.label, new.abort_here, new.alternates) == (
        old.node, old.label, old.abort_here, old.alternates), where
    assert len(new.ops) == len(old.ops), where
    for op, reference in zip(new.ops, old.ops):
        assert type(op) is type(reference) and op.key == reference.key, where
        if isinstance(op, WriteOp):
            assert op == reference or isinstance(op.operation, Assign), where
            assert (operation_state(op.operation)
                    == operation_state(reference.operation)), where
    assert len(new.children) == len(old.children), where
    for child, reference in zip(new.children, old.children):
        assert_same_tree(child, reference, where)


def classification(spec):
    return (spec.is_read_only, spec.is_well_behaved, spec.wants_abort,
            list(spec.nodes))


def pair(replication_factor, span, abort_fraction, observations, zipf,
         amount_mode, seed):
    def build(cls):
        config = RecordingConfig(
            nodes=NODES, entities=12, span=span, amount_mode=amount_mode,
            with_observations=observations, abort_fraction=abort_fraction,
            zipf=zipf, replication_factor=replication_factor,
            audit_entities=4,
        )
        return cls(config, RngRegistry(seed))
    return build(RecordingWorkload), build(ReferenceRecordingWorkload)


@pytest.mark.parametrize("span", [1, 2, 3])
@pytest.mark.parametrize("replication_factor", [1, 3])
def test_builders_match_the_reference(replication_factor, span):
    for axes in AXES:
        new, old = pair(replication_factor, span, *axes)
        # The classes interleave, as several arrival streams' builds do.
        order = random.Random(axes[-1]).choices(
            ["make_recording", "make_inquiry", "make_audit",
             "make_correction"], k=BUILDS)
        for index, builder in enumerate(order):
            where = (replication_factor, span, axes, index, builder)
            spec = getattr(new, builder)(index)
            reference = getattr(old, builder)(index)
            assert spec.name == reference.name, where
            assert_same_tree(spec.root, reference.root, where)
            assert classification(spec) == classification(reference), where
            # The class the builder states is the one validate() derives.
            checked = TransactionSpec(spec.name, spec.root)
            assert classification(checked) == classification(spec), where
        assert new._rng.getstate() == old._rng.getstate()
        assert new.update_amounts == old.update_amounts
        assert new.correction_entities == old.correction_entities


def test_builders_skip_the_validate_walk(monkeypatch):
    new, _ = pair(3, 2, 0.5, True, 0.0, "bitmask", 1)

    def refuse(spec):
        raise AssertionError(f"{spec.name} was validated")

    monkeypatch.setattr(TransactionSpec, "validate", refuse)
    for index in range(20):
        for builder in (new.make_recording, new.make_inquiry,
                        new.make_audit, new.make_correction):
            builder(index)


def test_copies_of_a_record_share_one_operation():
    new, _ = pair(3, 2, 0.0, True, 0.0, "money", 2)
    spec = new.make_recording(0)
    increments = {
        id(op.operation) for sub in spec.root.walk() for op in sub.ops
        if isinstance(op.operation, Increment)
    }
    records = [op.operation for sub in spec.root.walk() for op in sub.ops
               if isinstance(op.operation, Record)]
    assert len(increments) == 1
    assert len({id(record) for record in records}) == 2  # one per slot
