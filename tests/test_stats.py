"""Unit tests for replication statistics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import mean_ci
from repro.analysis.stats import t_critical


def replicate(run, seeds):
    """Run ``run(seed)`` for every seed and collect the scalar results."""
    return [run(seed) for seed in seeds]


class TestMeanCI:
    def test_simple_interval(self):
        ci = mean_ci([1.0, 2.0, 3.0])
        assert ci.mean == 2.0
        assert ci.low < 2.0 < ci.high
        assert ci.n == 3

    def test_single_value_degenerate(self):
        ci = mean_ci([5.0])
        assert ci.mean == ci.low == ci.high == 5.0
        assert ci.half_width == 0.0

    def test_identical_values_zero_width(self):
        ci = mean_ci([4.0, 4.0, 4.0, 4.0])
        assert ci.half_width == pytest.approx(0.0)

    def test_higher_confidence_wider(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        narrow = mean_ci(values, confidence=0.80)
        wide = mean_ci(values, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_more_samples_narrower(self):
        narrow = mean_ci([1.0, 2.0, 3.0] * 10)
        wide = mean_ci([1.0, 2.0, 3.0])
        assert narrow.half_width < wide.half_width

    def test_str_format(self):
        assert "±" in str(mean_ci([1.0, 2.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ci([])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            mean_ci([1.0], confidence=1.5)

    @given(st.lists(st.floats(min_value=-100, max_value=100),
                    min_size=2, max_size=30))
    def test_mean_always_inside_interval(self, values):
        ci = mean_ci(values)
        assert ci.low <= ci.mean <= ci.high


class TestTCritical:
    def test_known_values(self):
        assert t_critical(0.95, 1) == pytest.approx(12.706204736, rel=1e-9)
        assert t_critical(0.95, 2) == pytest.approx(4.302652730, rel=1e-9)
        assert t_critical(0.99, 10) == pytest.approx(3.169272673, rel=1e-9)

    def test_matches_scipy(self):
        """The closed-form quantile against scipy, a test-only reference."""
        stats = pytest.importorskip("scipy.stats")
        for df in [*range(1, 60), 100, 500, 1000, 5000]:
            for confidence in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
                expected = stats.t.ppf((1 + confidence) / 2, df)
                assert t_critical(confidence, df) == pytest.approx(
                    expected, rel=1e-9), (confidence, df)


class TestReplicate:
    def test_runs_per_seed(self):
        seen = []

        def run(seed):
            seen.append(seed)
            return seed * 2.0

        assert replicate(run, [1, 2, 3]) == [2.0, 4.0, 6.0]
        assert seen == [1, 2, 3]

    def test_with_experiments(self):
        from repro.analysis import throughput
        from repro.workloads import run_recording_experiment

        def goodput(seed):
            result = run_recording_experiment(
                "3v", nodes=3, duration=10.0, update_rate=4.0,
                inquiry_rate=1.0, audit_rate=0.0, entities=10, span=2,
                seed=seed, detail=False,
            )
            return throughput(result.history, 10.0, kind="update")

        values = replicate(goodput, [1, 2, 3])
        ci = mean_ci(values)
        assert 2.0 < ci.mean < 6.0
