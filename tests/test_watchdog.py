"""The advancement liveness watchdog (`advancement_stalls`).

A stall is a budget-exceeding gap between read-version advancements
(phase-3 completions), padded with the run's start and end so a system
that never advances — or stops advancing — is caught too.  The watchdog
also prices the degradation: the worst staleness suffered by a read
submitted inside a stall span.
"""

from repro.analysis import StallSummary, advancement_stalls
from repro.txn.history import AdvancementRecord, History, TxnKind, TxnRecord


def history_with_marks(*phase3_times, retain=True):
    history = History(events=("read",), retain=retain)
    for i, done in enumerate(phase3_times):
        history.advancements.append(AdvancementRecord(
            new_update_version=i + 2, started=done - 1.0, phase3_done=done,
        ))
    return history


def add_read(history, name, version, submit_time):
    history.txns[name] = TxnRecord(
        name=name, kind=TxnKind.READ, version=version,
        submit_time=submit_time, root_node="p",
    )


class TestAdvancementStalls:
    def test_no_stalls_inside_budget(self):
        history = history_with_marks(4.0, 8.0, 12.0)
        stalls = advancement_stalls(history, horizon=15.0, budget=5.0)
        assert stalls == StallSummary()

    def test_leading_and_trailing_gaps_count(self):
        # First advancement at 12 with budget 5: stalled over [5, 12).
        # Nothing after 12 until the horizon 20: stalled over [17, 20).
        history = history_with_marks(12.0)
        stalls = advancement_stalls(history, horizon=20.0, budget=5.0)
        assert stalls.count == 2
        assert stalls.total == (12.0 - 5.0) + (20.0 - 17.0)
        assert stalls.longest == 7.0
        assert stalls.stalled_at_end

    def test_never_advancing_is_one_whole_run_stall(self):
        stalls = advancement_stalls(History(), horizon=30.0,
                                    budget=10.0)
        assert stalls.count == 1
        assert stalls.total == 20.0
        assert stalls.stalled_at_end

    def test_disabled_budgets_and_streaming_report_empty(self):
        history = history_with_marks(12.0)
        assert advancement_stalls(history, 20.0, 0.0) == StallSummary()
        assert advancement_stalls(history, 0.0, 5.0) == StallSummary()
        # A retiring history keeps its advancements (these marks stall
        # once retained) but not the read records a stall is priced with.
        retiring = history_with_marks(12.0, retain=False)
        assert advancement_stalls(retiring, 20.0, 5.0) == StallSummary()

    def test_marks_past_the_horizon_are_ignored(self):
        history = history_with_marks(4.0, 99.0)
        stalls = advancement_stalls(history, horizon=20.0, budget=5.0)
        assert stalls.count == 1  # the [9, 20) tail, 99 doesn't rescue it
        assert stalls.stalled_at_end

    def test_staleness_priced_only_inside_stall_spans(self):
        history = history_with_marks(12.0)
        closed_at = {1: 2.0}
        # Submitted at 8, inside the [5, 12) stall: staleness 6.
        add_read(history, "in-stall", version=1, submit_time=8.0)
        # Submitted at 12.5, between spans: its (larger) staleness is the
        # normal protocol lag, not stall degradation.
        add_read(history, "healthy", version=1, submit_time=12.5)
        stalls = advancement_stalls(history, horizon=20.0, budget=5.0,
                                    closed_at=closed_at)
        assert stalls.staleness_max == 8.0 - 2.0


class TestSummaryIntegration:
    def test_3v_summary_reports_stalls_against_a_tight_budget(self):
        from repro.exp import ExperimentSpec
        from repro.exp.summary import run_spec

        spec = ExperimentSpec(protocol="3v", nodes=2, duration=10.0,
                              update_rate=2.0, inquiry_rate=1.0, seed=1,
                              stall_budget=1.0)
        summary = run_spec(spec)
        # A 1-time-unit budget against the default advancement period is
        # sure to lapse; degradation shows up priced in staleness.
        assert summary.stall_count >= 1
        assert summary.stall_time > 0.0
        assert summary.longest_stall > 0.0

    def test_epoch_less_baselines_report_no_stalls(self):
        from repro.exp import ExperimentSpec
        from repro.exp.summary import run_spec

        spec = ExperimentSpec(protocol="manual", nodes=2, duration=10.0,
                              update_rate=2.0, inquiry_rate=1.0, seed=1,
                              stall_budget=1.0)
        summary = run_spec(spec)
        assert summary.stall_count == 0
        assert summary.stall_time == 0.0
        assert summary.coordinator_epoch == 0
