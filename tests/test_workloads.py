"""Unit tests for workload generators and arrival processes."""

import pytest

from repro.errors import ReproError
from repro.sim import RngRegistry
from repro.txn import ReadOp, WriteOp
from repro.workloads import (
    RecordingConfig,
    RecordingWorkload,
    balance_key,
    hospital_workload,
    log_key,
    poisson_arrivals,
    retail_workload,
    telecom_workload,
    uniform_arrivals,
)

NODES = ["n0", "n1", "n2", "n3"]


@pytest.fixture
def workload():
    config = RecordingConfig(nodes=NODES, entities=10, span=2,
                             amount_mode="bitmask")
    return RecordingWorkload(config, RngRegistry(5))


class TestArrivals:
    def test_poisson_rate_roughly_respected(self):
        rngs = RngRegistry(1)
        times = poisson_arrivals(rngs, "s", rate=10.0, duration=100.0)
        assert 800 < len(times) < 1200
        assert all(0 <= t < 100.0 for t in times)
        assert times == sorted(times)

    def test_poisson_zero_rate(self):
        assert poisson_arrivals(RngRegistry(1), "s", 0.0, 10.0) == []

    def test_poisson_deterministic_per_seed(self):
        a = poisson_arrivals(RngRegistry(3), "s", 5.0, 10.0)
        b = poisson_arrivals(RngRegistry(3), "s", 5.0, 10.0)
        assert a == b

    def test_poisson_streams_independent(self):
        rngs = RngRegistry(3)
        a = poisson_arrivals(rngs, "s1", 5.0, 10.0)
        b = poisson_arrivals(rngs, "s2", 5.0, 10.0)
        assert a != b

    def test_uniform_arrivals_spacing(self):
        times = uniform_arrivals(rate=2.0, duration=3.0)
        assert times == [0.5, 1.0, 1.5, 2.0, 2.5]


class TestRecordingWorkload:
    def test_entity_placement_spans_requested_nodes(self, workload):
        for entity, nodes in workload.entity_homes.items():
            assert len(nodes) == 2
            assert len(set(nodes)) == 2
            assert set(nodes) <= set(NODES)

    def test_recording_txn_touches_all_entity_nodes(self, workload):
        spec = workload.make_recording(0)
        entity, _amount = workload.update_amounts["rec-0"]
        assert spec.nodes == set(workload.entity_homes[entity])
        assert spec.is_well_behaved and not spec.is_read_only

    def test_recording_amounts_are_distinct_bits(self, workload):
        masks = {}
        for index in range(30):
            workload.make_recording(index)
        for name, (entity, amount) in workload.update_amounts.items():
            assert amount & (amount - 1) == 0  # power of two
            assert amount not in masks.get(entity, set())
            masks.setdefault(entity, set()).add(amount)

    def test_money_mode_amounts_in_range(self):
        config = RecordingConfig(nodes=NODES, entities=5, span=2,
                                 amount_mode="money",
                                 charge_low=10.0, charge_high=20.0)
        workload = RecordingWorkload(config, RngRegistry(1))
        for index in range(20):
            workload.make_recording(index)
        for _entity, amount in workload.update_amounts.values():
            assert 10.0 <= amount <= 20.0

    def test_inquiry_reads_balance_everywhere(self, workload):
        spec = workload.make_inquiry(0)
        entity = workload.entity_of_inquiry(spec.name)
        assert spec.is_read_only
        assert spec.nodes == set(workload.entity_homes[entity])
        for sub in spec.root.walk():
            assert all(isinstance(op, ReadOp) for op in sub.ops)
            assert all(op.key == balance_key(entity) for op in sub.ops)

    def test_audit_reads_many_entities(self, workload):
        spec = workload.make_audit(0)
        keys = {op.key for sub in spec.root.walk() for op in sub.ops}
        assert len(keys) == workload.config.audit_entities

    def test_correction_is_non_commuting(self, workload):
        spec = workload.make_correction(0, value=42)
        assert not spec.is_well_behaved
        for sub in spec.root.walk():
            for op in sub.ops:
                assert isinstance(op, WriteOp)
                assert op.operation.value == 42

    def test_abort_fraction_marks_some_txns(self):
        config = RecordingConfig(nodes=NODES, entities=10, span=2,
                                 abort_fraction=0.5)
        workload = RecordingWorkload(config, RngRegistry(2))
        flagged = sum(
            workload.make_recording(index).wants_abort for index in range(40)
        )
        assert 5 < flagged < 35

    def test_install_loads_all_entities(self, workload):
        class FakeSystem:
            def __init__(self):
                self.loaded = []

            def load(self, node, key, value, version=0):
                self.loaded.append((node, key, value))

        system = FakeSystem()
        workload.install(system)
        assert len(system.loaded) == 10 * 2 * 2  # entities * span * 2 keys
        keys = {key for _node, key, _value in system.loaded}
        assert balance_key(0) in keys
        assert log_key(0) in keys

    def test_committed_mask_respects_versions(self, workload):
        from repro.analysis import CommittedMasks
        from repro.txn import History, TxnKind

        workload.make_recording(0)
        workload.make_recording(1)
        history = History()
        (e0, a0) = workload.update_amounts["rec-0"]
        (e1, a1) = workload.update_amounts["rec-1"]
        history.begin_txn("rec-0", TxnKind.UPDATE, 1, 0.0, "n0")
        history.begin_txn("rec-1", TxnKind.UPDATE, 2, 0.0, "n0")
        masks = CommittedMasks.from_history(history, workload.update_amounts)
        if e0 == e1:
            assert masks.upto(e0, max_version=1) == a0
            assert masks.upto(e0, max_version=2) == a0 | a1
        else:
            assert masks.upto(e0, max_version=2) == a0
            assert masks.upto(e1, max_version=2) == a1

    def test_aborted_txns_excluded_from_mask(self, workload):
        from repro.analysis import CommittedMasks
        from repro.txn import History, TxnKind

        workload.make_recording(0)
        history = History()
        entity, _amount = workload.update_amounts["rec-0"]
        history.begin_txn("rec-0", TxnKind.UPDATE, 1, 0.0, "n0")
        history.aborted("rec-0", 1.0)
        masks = CommittedMasks.from_history(history, workload.update_amounts)
        assert masks.upto(entity) == 0

    def test_invalid_span_rejected(self):
        with pytest.raises(ReproError):
            RecordingConfig(nodes=NODES, span=9)

    def test_invalid_amount_mode_rejected(self):
        with pytest.raises(ReproError):
            RecordingConfig(nodes=NODES, amount_mode="bitcoin")


class TestDomainWorkloads:
    def test_hospital_vocabulary(self):
        workload = hospital_workload(patients=20, seed=3)
        visit = workload.make_visit(0)
        inquiry = workload.make_balance_inquiry(1)
        statement = workload.make_statement_run(2)
        adjustment = workload.make_billing_adjustment(3, value=0)
        assert visit.is_well_behaved and not visit.is_read_only
        assert inquiry.is_read_only
        assert statement.is_read_only
        assert not adjustment.is_well_behaved
        patient = workload.entity_of_inquiry(inquiry.name)
        assert workload.patient_departments(patient)

    def test_telecom_shape(self):
        workload = telecom_workload(switches=8, accounts=100, seed=3)
        call = workload.make_call(0)
        assert len(call.nodes) == 2
        assert all(node.startswith("sw") for node in call.nodes)

    def test_retail_shape(self):
        workload = retail_workload(stores=6, products=50, seed=3)
        sale = workload.make_sale(0)
        stock_take = workload.make_stock_take(1, counted=77)
        assert len(sale.nodes) == 3
        assert not stock_take.is_well_behaved
