"""Property tests for the streaming history's online aggregates.

The bounded-memory mode rests on three numerical claims, each checked
here against the exact materialized computation:

* while a population fits in the reservoir, ``StreamingStats.summary()``
  is *bit-identical* to ``LatencySummary.of`` over the full value list
  (the differential-oracle regime every small run exercises);
* the incremental ``ExactSum`` matches ``math.fsum`` exactly under any
  permutation of the inputs, so fold order can never perturb a mean;
* past the reservoir, the P² quantile estimators stay close to the exact
  percentiles on uniform, exponential, and Zipf-skewed populations.

Determinism rides along: a seeded reservoir fed the same stream twice is
identical, and streaming experiment summaries come out bit-for-bit the
same whether the fleet runs them serially or in spawned workers.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exp import ExperimentSpec, Fleet
from repro.txn.streamstats import (
    DEFAULT_RESERVOIR,
    ExactSum,
    LatencySummary,
    P2Quantile,
    ReservoirSample,
    StreamingStats,
    derived_rng,
    percentile,
)

#: Latency-like values: non-negative, finite, spanning several decades.
latencies = st.floats(min_value=0.0, max_value=1e6,
                      allow_nan=False, allow_infinity=False)


class TestExactSum:
    @given(st.lists(latencies, max_size=200), st.randoms())
    def test_matches_fsum_under_permutation(self, values, shuffler):
        """The sum depends on the multiset, never the order."""
        forward = ExactSum()
        for x in values:
            forward.add(x)
        shuffled = list(values)
        shuffler.shuffle(shuffled)
        backward = ExactSum()
        for x in shuffled:
            backward.add(x)
        expected = math.fsum(values)
        assert forward.value == expected
        assert backward.value == expected

    def test_catastrophic_cancellation_stays_exact(self):
        s = ExactSum()
        for x in (1e16, 1.0, -1e16):
            s.add(x)
        assert s.value == 1.0


class TestReservoir:
    @given(st.lists(latencies, min_size=1, max_size=150),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_exact_while_population_fits(self, values, seed):
        reservoir = ReservoirSample(capacity=150, rng=random.Random(seed))
        for x in values:
            reservoir.add(x)
        assert reservoir.exact
        assert reservoir.values == values

    def test_deterministic_for_a_fixed_seed(self):
        source = random.Random(5)
        stream = [source.uniform(0, 10) for _ in range(2000)]
        first = ReservoirSample(64, derived_rng(17, "stats.update"))
        second = ReservoirSample(64, derived_rng(17, "stats.update"))
        for x in stream:
            first.add(x)
            second.add(x)
        assert not first.exact
        assert first.values == second.values
        # A different named stream samples differently.
        other = ReservoirSample(64, derived_rng(17, "stats.read"))
        for x in stream:
            other.add(x)
        assert other.values != first.values

    def test_sample_is_roughly_uniform(self):
        """Every fifth of a 10k stream should land ~1/5 of a big sample."""
        reservoir = ReservoirSample(2048, derived_rng(3, "stats.update"))
        for i in range(10_000):
            reservoir.add(float(i))
        for fifth in range(5):
            share = sum(1 for v in reservoir.values
                        if fifth * 2000 <= v < (fifth + 1) * 2000)
            assert 0.12 < share / len(reservoir.values) < 0.28


class TestStreamingStatsExactRegime:
    @given(st.lists(latencies, max_size=300),
           st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=50)
    def test_bit_identical_to_materialized_summary(self, values, seed):
        stats = StreamingStats(random.Random(seed), capacity=300)
        for x in values:
            stats.add(x)
        streamed = stats.summary()
        exact = LatencySummary.of(values)
        assert streamed == exact  # dataclass equality: every field exact


class TestP2Accuracy:
    """Past the reservoir, P² must track exact percentiles closely.

    Deterministic populations (seeded, n=50k) rather than Hypothesis:
    P² is an estimator with distribution-dependent error, so the claim
    is quantitative closeness on representative shapes, not identity on
    adversarial ones.
    """

    N = 50_000

    def populations(self):
        rng = random.Random(123)
        uniform = [rng.uniform(0.0, 100.0) for _ in range(self.N)]
        exponential = [rng.expovariate(1 / 8.0) for _ in range(self.N)]
        zipfish = [1.0 / (1.0 - rng.random()) ** 0.8 for _ in range(self.N)]
        return {"uniform": uniform, "exponential": exponential,
                "zipf": zipfish}

    @pytest.mark.parametrize("q", [0.50, 0.95, 0.99])
    def test_close_to_exact_percentile(self, q):
        for name, values in self.populations().items():
            estimator = P2Quantile(q)
            for x in values:
                estimator.add(x)
            exact = percentile(values, q * 100.0)
            spread = percentile(values, 99.9) - percentile(values, 0.1)
            error = abs(estimator.estimate - exact)
            assert error <= 0.05 * spread, (
                f"P2({q}) off by {error:.4g} (>{0.05 * spread:.4g}) "
                f"on the {name} population: {estimator.estimate:.4g} "
                f"vs exact {exact:.4g}"
            )

    def test_estimate_stays_inside_observed_range(self):
        rng = random.Random(7)
        estimator = P2Quantile(0.95)
        lo, hi = float("inf"), float("-inf")
        for _ in range(5_000):
            x = rng.lognormvariate(0.0, 2.0)
            lo, hi = min(lo, x), max(hi, x)
            estimator.add(x)
        assert lo <= estimator.estimate <= hi

    def test_default_reservoir_hands_off_to_p2(self):
        stats = StreamingStats(derived_rng(0, "stats.update"))
        rng = random.Random(99)
        values = [rng.expovariate(1.0) for _ in range(3 * DEFAULT_RESERVOIR)]
        for x in values:
            stats.add(x)
        summary = stats.summary()
        assert summary.count == len(values)
        assert summary.mean == math.fsum(values) / len(values)
        assert summary.max == max(values)
        for attr, q in (("p50", 50), ("p95", 95), ("p99", 99)):
            exact = percentile(values, q)
            assert abs(getattr(summary, attr) - exact) <= 0.15 * exact


class ReferenceP2Quantile:
    """``P2Quantile`` as it was before its update became straight-line code:
    five-element lists and index loops.  Kept as the differential oracle —
    the rewrite must perform the same float operations in the same order."""

    def __init__(self, q: float):
        self.q = q
        self._heights = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q,
                         5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self._count = 0

    def add(self, x: float) -> None:
        self._count += 1
        heights = self._heights
        if len(heights) < 5:
            heights.append(x)
            heights.sort()
            return
        if x < heights[0]:
            heights[0] = x
            k = 0
        elif x >= heights[4]:
            heights[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and x >= heights[k + 1]:
                k += 1
        positions = self._positions
        for i in range(k + 1, 5):
            positions[i] += 1.0
        desired = self._desired
        for i in range(5):
            desired[i] += self._increments[i]
        for i in (1, 2, 3):
            delta = desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1])
            / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    @property
    def estimate(self) -> float:
        if self._count < 5:
            return percentile(self._heights, self.q * 100.0)
        return self._heights[2]


def reference_stats(seed: int) -> StreamingStats:
    """A ``StreamingStats`` whose quantiles come from the reference P²."""
    stats = StreamingStats(random.Random(seed))
    stats._p2 = tuple(ReferenceP2Quantile(q) for q in stats.QUANTILES)
    return stats


class TestP2MatchesReference:
    """The straight-line marker update against the list-indexed original:
    bit-equal, not close — digests of streaming runs hash these floats."""

    @given(st.lists(latencies, min_size=1, max_size=200),
           st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=100)
    def test_estimate_bit_equal_after_every_sample(self, values, q):
        new, old = P2Quantile(q), ReferenceP2Quantile(q)
        for x in values:
            new.add(x)
            old.add(x)
            assert new.estimate == old.estimate

    @given(st.lists(st.sampled_from([0.0, 1.0, 2.0, 2.0, 3.0, 1e6]),
                    min_size=5, max_size=120))
    def test_ties_and_repeated_extremes(self, values):
        new, old = P2Quantile(0.95), ReferenceP2Quantile(0.95)
        for x in values:
            new.add(x)
            old.add(x)
        assert new.estimate == old.estimate

    @pytest.mark.parametrize("shape", ["falling", "rising", "sawtooth"])
    @pytest.mark.parametrize("q", [0.02, 0.5, 0.95, 0.99])
    def test_adjacent_marker_guards(self, shape, q):
        """Monotone streams pile the markers up against each other, so the
        'neighbour is more than one position away' guards decide (the
        downward ones only at small q, hence 0.02)."""
        stream = {
            "falling": [1000.0 - i for i in range(400)],
            "rising": [float(i) for i in range(400)],
            "sawtooth": [float(i % 7) if i % 50 < 25 else 500.0 - i
                         for i in range(400)],
        }[shape]
        new, old = P2Quantile(q), ReferenceP2Quantile(q)
        for x in stream:
            new.add(x)
            old.add(x)
            assert new.estimate == old.estimate

    @pytest.mark.parametrize("size", [
        4, 5, DEFAULT_RESERVOIR - 1, DEFAULT_RESERVOIR,
        DEFAULT_RESERVOIR + 1, 5 * DEFAULT_RESERVOIR,
    ])
    def test_summary_bit_equal_around_the_reservoir_boundary(self, size):
        rng = random.Random(size)
        new = StreamingStats(random.Random(3))
        old = reference_stats(3)
        for _ in range(size):
            x = rng.lognormvariate(0.0, 1.5)
            new.add(x)
            old.add(x)
        assert new.summary() == old.summary()


class TestStreamingFleetDeterminism:
    """Streaming summaries must be bit-identical across worker counts.

    Spawned fleet workers draw fresh hash seeds and interleave wall
    clocks, so any hidden order- or host-dependence in the streaming
    fold (reservoir RNG, P² marker updates, ExactSum partials) would
    show up here as a digest mismatch.
    """

    def specs(self):
        return [
            ExperimentSpec(protocol, nodes=3, duration=6.0, update_rate=4.0,
                           inquiry_rate=2.0, audit_rate=0.2, entities=10,
                           span=2, seed=seed, stream=1, zipf=0.7,
                           detail=True)
            for protocol in ("3v", "nocoord") for seed in (0, 1)
        ]

    def test_jobs1_vs_jobs4_identical(self):
        specs = self.specs()
        serial = Fleet(jobs=1).run(specs)
        parallel = Fleet(jobs=4).run(specs)
        masked = [dataclasses.replace(s, wall_seconds=0.0) for s in serial]
        assert masked == [dataclasses.replace(s, wall_seconds=0.0)
                          for s in parallel]
        assert ([s.determinism_digest() for s in serial]
                == [s.determinism_digest() for s in parallel])
