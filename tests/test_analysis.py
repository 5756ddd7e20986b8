"""Unit tests for the analysis package (metrics, oracles, report)."""

import pytest

from repro.analysis import (
    AnomalyReport,
    LatencySummary,
    Table,
    atomic_visibility_violations,
    audit,
    audit_verdict,
    fmt,
    latency_summary,
    max_remote_wait,
    percentile,
    staleness_summary,
    throughput,
    wait_summary,
)
from repro.analysis.serializability import Violation
from repro.txn import (
    AdvancementRecord,
    History,
    TxnKind,
    WaitReason,
)


def make_history(retain=True):
    history = History(events=("read",), retain=retain)
    for index in range(4):
        history.begin_txn(f"u{index}", TxnKind.UPDATE, 1, float(index), "a")
        history.locally_committed(f"u{index}", index + 1.0)
        history.globally_completed(f"u{index}", index + 2.0)
    history.begin_txn("r0", TxnKind.READ, 0, 10.0, "a")
    history.locally_committed("r0", 10.5)
    history.globally_completed("r0", 11.0)
    history.begin_txn("dead", TxnKind.UPDATE, 1, 0.0, "a")
    history.aborted("dead", 1.0)
    return history


def abort_rate(history):
    """Fraction of all finished transactions that aborted."""
    return history.aborted_count() / history.total_txns


def committed_counts(history):
    """Committed transactions by kind."""
    return {
        kind: history.count(kind)
        for kind in (TxnKind.UPDATE, TxnKind.READ, TxnKind.NONCOMMUTING)
    }


class TestPercentile:
    def test_median_of_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5.0

    def test_extremes(self):
        values = list(range(101))
        assert percentile(values, 0) == 0
        assert percentile(values, 100) == 100

    def test_single_value(self):
        assert percentile([7.0], 95) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestSummaries:
    def test_latency_summary_local(self):
        summary = latency_summary(make_history(), kind=TxnKind.UPDATE)
        assert summary.count == 4
        assert summary.mean == 1.0
        assert summary.p50 == 1.0

    def test_latency_summary_global(self):
        summary = latency_summary(
            make_history(), kind=TxnKind.UPDATE, which="global"
        )
        assert summary.mean == 2.0

    @pytest.mark.parametrize("retain", [True, False])
    def test_unknown_latency_is_rejected(self, retain):
        history = make_history(retain)
        with pytest.raises(ValueError, match="'Local'"):
            latency_summary(history, kind=TxnKind.UPDATE, which="Local")
        with pytest.raises(ValueError, match="'p95'"):
            history.stats().latency(which="p95")

    def test_empty_summary(self):
        summary = LatencySummary.of([])
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_throughput_and_aborts(self):
        history = make_history()
        assert throughput(history, 10.0, kind=TxnKind.UPDATE) == 0.4
        assert throughput(history, 10.0) == 0.5
        assert abort_rate(history) == pytest.approx(1 / 6)
        with pytest.raises(ValueError):
            throughput(history, 0.0)

    def test_committed_counts(self):
        counts = committed_counts(make_history())
        assert counts == {"update": 4, "read": 1, "noncommuting": 0}

    def test_wait_summary_and_remote(self):
        history = make_history()
        history.waited("u0", WaitReason.LOCK, 2.0)
        history.waited("u1", WaitReason.REMOTE, 3.0)
        waits = wait_summary(history)
        assert waits == {"lock": 2.0, "remote": 3.0}
        assert max_remote_wait(history) == 3.0


class TestStaleness:
    def test_closed_at_derivation(self):
        history = History()
        record = AdvancementRecord(new_update_version=2, started=5.0)
        record.phase1_done = 6.0
        history.advancements.append(record)
        assert history.closed_at() == {0: 0.0, 1: 6.0}

    def test_staleness_of_reads(self):
        history = History()
        record = AdvancementRecord(new_update_version=2, started=5.0)
        record.phase1_done = 6.0
        history.advancements.append(record)
        history.begin_txn("r1", TxnKind.READ, 1, 10.0, "a")
        history.locally_committed("r1", 10.1)
        history.globally_completed("r1", 10.1)
        summary = staleness_summary(history)
        assert summary.count == 1
        assert summary.mean == pytest.approx(4.0)  # 10.0 - 6.0

    def test_open_version_reads_are_fresh(self):
        history = History()
        history.begin_txn("r1", TxnKind.READ, 3, 10.0, "a")
        history.globally_completed("r1", 10.1)
        assert staleness_summary(history).mean == 0.0


class TestOracles:
    def _fractured_history(self):
        history = History()
        history.begin_txn("q", TxnKind.READ, 0, 0.0, "a")
        history.globally_completed("q", 1.0)
        history.read(0.5, "q", "q", "a", "bal:1", 0, 0, 3)
        history.read(0.6, "q", "q", "b", "bal:1", 0, 0, 1)
        return history

    def test_fracture_detected(self):
        violations = atomic_visibility_violations(self._fractured_history())
        assert len(violations) == 1
        assert violations[0].kind == "fractured-read"
        assert violations[0].txn == "q"

    def test_consistent_reads_pass(self):
        history = History()
        history.begin_txn("q", TxnKind.READ, 0, 0.0, "a")
        history.globally_completed("q", 1.0)
        history.read(0.5, "q", "q", "a", "bal:1", 0, 0, 3)
        history.read(0.6, "q", "q", "b", "bal:1", 0, 0, 3)
        assert atomic_visibility_violations(history) == []

    def test_aborted_reads_ignored(self):
        history = self._fractured_history()
        history.aborted("q", 2.0)
        assert atomic_visibility_violations(history) == []

    def test_update_reads_ignored(self):
        """Only read-only transactions are held to snapshot semantics —
        an update transaction legitimately sees in-progress same-version
        state."""
        history = History()
        history.begin_txn("u", TxnKind.UPDATE, 1, 0.0, "a")
        history.globally_completed("u", 1.0)
        history.read(0.5, "u", "u", "a", "bal:1", 1, 1, 3)
        history.read(0.6, "u", "u", "b", "bal:1", 1, 1, 1)
        assert atomic_visibility_violations(history) == []

    def test_float_drift_is_not_fractured(self):
        """Money amounts summed in different per-node orders drift by
        ULPs; that is float non-associativity, not a fractured read."""
        history = History()
        history.begin_txn("q", TxnKind.READ, 0, 0.0, "a")
        history.globally_completed("q", 1.0)
        history.read(0.5, "q", "q", "a", "bal:1", 0, 0, 21614.28)
        history.read(0.6, "q", "q", "b", "bal:1", 0, 0, 21614.280000000002)
        assert atomic_visibility_violations(history) == []

    def test_real_money_fracture_still_detected(self):
        """A genuine fracture differs by whole update amounts — far past
        the drift tolerance."""
        history = History()
        history.begin_txn("q", TxnKind.READ, 0, 0.0, "a")
        history.globally_completed("q", 1.0)
        history.read(0.5, "q", "q", "a", "bal:1", 0, 0, 100.00)
        history.read(0.6, "q", "q", "b", "bal:1", 0, 0, 120.50)
        assert len(atomic_visibility_violations(history)) == 1

    def test_bitmask_ints_compared_exactly(self):
        from repro.analysis.serializability import effectively_distinct

        masks = [1 << 200, (1 << 200) | 1]
        assert len(effectively_distinct(masks)) == 2
        assert len(effectively_distinct([None, 0])) == 2

    def test_audit_requires_workload_for_snapshots(self):
        with pytest.raises(ValueError):
            audit(History(), check_snapshots=True)

    def test_audit_report_shape(self):
        report = audit(self._fractured_history())
        assert report.reads_checked == 1
        assert report.fractured_reads == 1
        assert not report.clean
        assert report.fractured_rate == 1.0


class TestReport:
    def test_table_renders_aligned(self):
        table = Table("My Experiment", ["system", "rate", "ok"])
        table.add("3v", 12.3456, True)
        table.add("2pc", 1.2, False)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "My Experiment"
        assert "system" in lines[2]
        assert "12.346" in text
        assert "yes" in text and "no" in text

    def test_table_wrong_arity_rejected(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add(1)

    def test_verdict_counts_every_violation_not_the_evidence(self):
        example = Violation(kind="fractured-read", txn="q", key="bal:1",
                            details="per-node values")
        report = AnomalyReport(
            reads_checked=5000, fractured_reads=640, snapshot_mismatches=1206,
            aborted_txns=0, compensated_txns=0, violations=[example] * 100)
        assert audit_verdict(report) == (
            f"AUDIT FAILED: 1846 violations, e.g. {example}")

    def test_fmt(self):
        assert fmt(1.23456) == "1.235"
        assert fmt(True) == "yes"
        assert fmt("plain") == "plain"
        assert fmt(7) == "7"
