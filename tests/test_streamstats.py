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

``StreamingStats`` folds in batches and starts P² only when a population
outgrows its reservoir; ``ReferenceStreamingStats`` below is the eager
per-value fold it replaced, kept verbatim as the differential oracle.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exp import ExperimentSpec, Fleet
from repro.sim.distributions import RngRegistry
from repro.txn.history import StreamingHistory
from repro.txn.streamstats import (
    DEFAULT_RESERVOIR,
    FOLD_BATCH,
    ExactSum,
    LatencySummary,
    P2Quantile,
    ReservoirSample,
    StreamingStats,
    _p2_height,
    derived_rng,
    percentile,
)
from repro.workloads.arrivals import drive_streaming, poisson_arrival_times
from repro.workloads.recording import RecordingConfig, RecordingWorkload
from repro.workloads.runner import build_system

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

    @given(st.lists(st.floats(min_value=-1e12, max_value=1e12,
                              allow_nan=False), max_size=400),
           st.integers(min_value=1, max_value=300))
    def test_any_batching_matches_the_per_value_partials(self, values, size):
        """``extend`` lets ``math.fsum`` do the adding; the total it keeps
        must round to what the Shewchuk partials round to, however the
        values are cut into batches and whatever their signs."""
        batched, reference = ExactSum(), ReferenceExactSum()
        for start in range(0, len(values), size):
            batched.extend(values[start:start + size])
            for x in values[start:start + size]:
                reference.add(x)
            assert batched.value == reference.value
        assert batched.value == math.fsum(values)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_value_is_rejected(self, bad):
        with pytest.raises(ValueError):
            ExactSum().extend((1.0, bad, 2.0))


class TestReservoir:
    @given(st.lists(latencies, min_size=1, max_size=150),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_exact_while_population_fits(self, values, seed):
        reservoir = ReservoirSample(capacity=150, rng=random.Random(seed))
        for x in values:
            reservoir.extend((x,))
        assert reservoir.exact
        assert reservoir.values == values

    def test_deterministic_for_a_fixed_seed(self):
        source = random.Random(5)
        stream = [source.uniform(0, 10) for _ in range(2000)]
        first = ReservoirSample(64, derived_rng(17, "stats.update"))
        second = ReservoirSample(64, derived_rng(17, "stats.update"))
        for x in stream:
            first.extend((x,))
        second.extend(stream)  # one batch draws exactly as 2000 singles do
        assert not first.exact
        assert first.values == second.values
        # A different named stream samples differently.
        other = ReservoirSample(64, derived_rng(17, "stats.read"))
        other.extend(stream)
        assert other.values != first.values

    def test_sample_is_roughly_uniform(self):
        """Every fifth of a 10k stream should land ~1/5 of a big sample."""
        reservoir = ReservoirSample(2048, derived_rng(3, "stats.update"))
        reservoir.extend([float(i) for i in range(10_000)])
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
            estimator.extend(values)
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
            estimator.extend((x,))
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


class ReferenceExactSum:
    """``ExactSum`` as it was while every value was folded on arrival."""

    def __init__(self) -> None:
        self._partials = []

    def add(self, x: float) -> None:
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    @property
    def value(self) -> float:
        return math.fsum(self._partials)


class ReferenceReservoirSample:
    """``ReservoirSample`` with its per-value ``add``."""

    def __init__(self, capacity: int, rng: random.Random):
        self.capacity = capacity
        self._rng = rng
        self._seen = 0
        self.values = []

    @property
    def exact(self) -> bool:
        return self._seen <= self.capacity

    def add(self, x: float) -> None:
        self._seen += 1
        if len(self.values) < self.capacity:
            self.values.append(x)
            return
        slot = self._rng.randrange(self._seen)
        if slot < self.capacity:
            self.values[slot] = x


class ReferenceStraightLineP2:
    """``P2Quantile`` with its per-value straight-line ``add``: the three
    tuples and the height list rebuilt for every observation."""

    def __init__(self, q: float):
        self.q = q
        self._heights = []
        self._positions = (2.0, 3.0, 4.0, 5.0)
        self._desired = (1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q)
        self._increments = (q / 2.0, q, (1.0 + q) / 2.0)
        self._count = 0

    def add(self, x: float) -> None:
        self._count += 1
        heights = self._heights
        if len(heights) < 5:
            heights.append(x)
            heights.sort()
            return
        h0, h1, h2, h3, h4 = heights
        n1, n2, n3, n4 = self._positions
        if x < h0:
            h0 = x
            n1 += 1.0
            n2 += 1.0
            n3 += 1.0
        elif x >= h4:
            h4 = x
        elif x >= h1:
            if x >= h2:
                if not x >= h3:
                    n3 += 1.0
            else:
                n2 += 1.0
                n3 += 1.0
        else:
            n1 += 1.0
            n2 += 1.0
            n3 += 1.0
        n4 += 1.0
        d1, d2, d3 = self._desired
        i1, i2, i3 = self._increments
        d1 += i1
        d2 += i2
        d3 += i3
        self._desired = (d1, d2, d3)
        delta = d1 - n1
        if delta >= 1.0:
            if n2 - n1 > 1.0:
                h1 = _p2_height(h0, h1, h2, 1.0, n1, n2, 1.0)
                n1 += 1.0
        elif delta <= -1.0 and 1.0 - n1 < -1.0:
            h1 = _p2_height(h0, h1, h2, 1.0, n1, n2, -1.0)
            n1 -= 1.0
        delta = d2 - n2
        if delta >= 1.0:
            if n3 - n2 > 1.0:
                h2 = _p2_height(h1, h2, h3, n1, n2, n3, 1.0)
                n2 += 1.0
        elif delta <= -1.0 and n1 - n2 < -1.0:
            h2 = _p2_height(h1, h2, h3, n1, n2, n3, -1.0)
            n2 -= 1.0
        delta = d3 - n3
        if delta >= 1.0:
            if n4 - n3 > 1.0:
                h3 = _p2_height(h2, h3, h4, n2, n3, n4, 1.0)
                n3 += 1.0
        elif delta <= -1.0 and n2 - n3 < -1.0:
            h3 = _p2_height(h2, h3, h4, n2, n3, n4, -1.0)
            n3 -= 1.0
        self._heights = [h0, h1, h2, h3, h4]
        self._positions = (n1, n2, n3, n4)

    @property
    def estimate(self) -> float:
        if self._count < 5:
            return percentile(self._heights, self.q * 100.0)
        return self._heights[2]


class ReferenceStreamingStats:
    """``StreamingStats`` as it was before it folded in batches: every
    ``add`` runs the exact sum, the reservoir step and all three P²
    estimators (created eagerly) at once.  The differential oracle of the
    batched fold — summaries must be field-for-field equal at any moment.
    """

    QUANTILES = StreamingStats.QUANTILES

    def __init__(self, rng: random.Random,
                 capacity: int = DEFAULT_RESERVOIR):
        self._sum = ReferenceExactSum()
        self._count = 0
        self._max = 0.0
        self._reservoir = ReferenceReservoirSample(capacity, rng)
        self._p2 = tuple(ReferenceStraightLineP2(q) for q in self.QUANTILES)

    @property
    def count(self) -> int:
        return self._count

    def add(self, x: float) -> None:
        self._count += 1
        self._sum.add(x)
        if x > self._max or self._count == 1:
            self._max = x
        self._reservoir.add(x)
        for estimator in self._p2:
            estimator.add(x)

    def summary(self) -> LatencySummary:
        if self._count == 0:
            return LatencySummary(count=0, mean=0.0, p50=0.0, p95=0.0,
                                  p99=0.0, max=0.0)
        if self._reservoir.exact:
            values = self._reservoir.values
            p50, p95, p99 = (percentile(values, q * 100.0)
                             for q in self.QUANTILES)
        else:
            p50, p95, p99 = (e.estimate for e in self._p2)
        return LatencySummary(
            count=self._count,
            mean=self._sum.value / self._count,
            p50=p50, p95=p95, p99=p99,
            max=self._max,
        )


class TestP2MatchesReference:
    """The straight-line marker update against the list-indexed original:
    bit-equal, not close — digests of streaming runs hash these floats."""

    @given(st.lists(latencies, min_size=1, max_size=200),
           st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=100)
    def test_estimate_bit_equal_after_every_sample(self, values, q):
        new, old = P2Quantile(q), ReferenceP2Quantile(q)
        for x in values:
            new.extend((x,))
            old.add(x)
            assert new.estimate == old.estimate

    @given(st.lists(st.sampled_from([0.0, 1.0, 2.0, 2.0, 3.0, 1e6]),
                    min_size=5, max_size=120))
    def test_ties_and_repeated_extremes(self, values):
        new, old = P2Quantile(0.95), ReferenceP2Quantile(0.95)
        for x in values:
            new.extend((x,))
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
            new.extend((x,))
            old.add(x)
            assert new.estimate == old.estimate

    @pytest.mark.parametrize("size", [
        4, 5, DEFAULT_RESERVOIR - 1, DEFAULT_RESERVOIR,
        DEFAULT_RESERVOIR + 1, 5 * DEFAULT_RESERVOIR,
    ])
    def test_summary_bit_equal_around_the_reservoir_boundary(self, size):
        rng = random.Random(size)
        new = StreamingStats(random.Random(3))
        old = ReferenceStreamingStats(random.Random(3))
        for _ in range(size):
            x = rng.lognormvariate(0.0, 1.5)
            new.add(x)
            old.add(x)
        assert new.summary() == old.summary()


def fold_both(values, capacity, seed=3, probes=()):
    """Feed ``values`` to the batched stats and the reference, reading
    ``count`` and ``summary()`` on both after each index in ``probes``
    and at the end; every reading must agree field for field."""
    new = StreamingStats(random.Random(seed), capacity=capacity)
    old = ReferenceStreamingStats(random.Random(seed), capacity=capacity)
    probes = set(probes)
    for index, x in enumerate(values):
        new.add(x)
        old.add(x)
        if index in probes:
            assert new.count == old.count
            assert (dataclasses.astuple(new.summary())
                    == dataclasses.astuple(old.summary())), index
    assert new.count == old.count == len(values)
    assert (dataclasses.astuple(new.summary())
            == dataclasses.astuple(old.summary()))
    return new


def lognormal(size, seed=11):
    rng = random.Random(seed)
    return [rng.lognormvariate(0.0, 1.5) for _ in range(size)]


class TestBatchedFoldMatchesReference:
    """The batched, late-P² fold against the eager per-value one."""

    @given(st.lists(latencies, max_size=700),
           st.integers(min_value=1, max_value=300),
           st.sets(st.integers(min_value=0, max_value=699), max_size=8),
           st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_equal_with_reads_at_arbitrary_points(self, values, capacity,
                                                  probes, seed):
        fold_both(values, capacity, seed=seed, probes=probes)

    @pytest.mark.parametrize("size", [FOLD_BATCH - 1, FOLD_BATCH,
                                      FOLD_BATCH + 1, 3 * FOLD_BATCH + 7])
    def test_around_the_batch_size(self, size):
        fold_both(lognormal(size), capacity=DEFAULT_RESERVOIR)
        fold_both(lognormal(size), capacity=100)

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_around_the_capacity(self, delta):
        # 1000 is not a multiple of the batch, so the last values are
        # folded by summary(), not by add().
        fold_both(lognormal(1000 + delta), capacity=1000)

    def test_batch_straddling_the_capacity(self):
        """Capacity 300 falls inside the second batch: that drain fills
        the reservoir with its first 44 values, seeds P² from all 300 and
        samples the remaining 212."""
        stats = fold_both(lognormal(2 * FOLD_BATCH), capacity=300)
        assert not stats._reservoir.exact

    @pytest.mark.parametrize("capacity", [1, 4, 5, 64, FOLD_BATCH - 1])
    def test_capacity_below_the_batch_size(self, capacity):
        """The reservoir overflows inside the first drain (and, under
        five, before P² has its five initial markers)."""
        for size in (capacity, capacity + 1, FOLD_BATCH, FOLD_BATCH + 9):
            fold_both(lognormal(size), capacity=capacity,
                      probes=(capacity - 1, capacity, capacity + 3))

    def test_empty_population(self):
        stats = fold_both([], capacity=8)
        assert stats.summary() == LatencySummary.of(())

    @pytest.mark.parametrize("value", [0.0, 2.5])
    def test_all_equal_values(self, value):
        fold_both([value] * 700, capacity=64, probes=(63, 64, 300))

    def test_p2_starts_only_past_the_reservoir(self):
        stats = StreamingStats(random.Random(0), capacity=600)
        for x in lognormal(600):
            stats.add(x)
        stats.summary()
        assert stats._p2 == ()
        stats.add(1.0)
        stats.summary()
        assert len(stats._p2) == len(StreamingStats.QUANTILES)


class ReferenceFoldHistory(StreamingHistory):
    """A streaming history whose populations are the reference stats."""

    def _new_stats(self, name):
        return ReferenceStreamingStats(
            derived_rng(self._stats_seed, f"reservoir.{name}"),
            capacity=self._reservoir,
        )


class TestHandOffMidRun:
    """The composition no unit test of ``StreamingStats`` covers: a real
    3V run whose populations outgrow a small reservoir while transactions
    are still retiring, read once mid-run (a drain that splits a batch)
    and again at the end."""

    DURATION = 30.0
    POPULATIONS = [(kind, which) for kind in (None, "update", "read")
                   for which in ("local", "global")]

    def run(self, history):
        nodes = [f"n{index:02d}" for index in range(4)]
        system = build_system("3v", nodes, seed=9, advancement_period=5.0,
                              history=history)
        workload = RecordingWorkload(
            RecordingConfig(nodes=nodes, entities=20, span=2),
            RngRegistry(10))
        workload.install(system)
        arrivals = RngRegistry(11)
        for name, rate, make_spec in (
                ("arrivals.update", 8.0, workload.make_recording),
                ("arrivals.inquiry", 4.0, workload.make_inquiry)):
            drive_streaming(
                system,
                poisson_arrival_times(arrivals, name, rate, self.DURATION),
                make_spec)
        readings = []

        def read_all():
            readings.append(
                [history.latency_stats(kind, which)
                 for kind, which in self.POPULATIONS]
                + [history.staleness_stats()])

        system.sim.schedule_at(self.DURATION / 2, read_all)
        system.run(until=self.DURATION)
        system.stop_policy()
        system.run_until_quiet()
        read_all()
        return readings

    def test_matches_the_reference_fold(self):
        streamed = self.run(StreamingHistory(stats_seed=12, reservoir=64))
        reference = self.run(ReferenceFoldHistory(stats_seed=12,
                                                  reservoir=64))
        assert streamed == reference
        mid_run, final = streamed
        updates_local = self.POPULATIONS.index(("update", "local"))
        # The hand-off to P² happened before the mid-run reading, inside
        # a run that kept retiring afterwards.
        assert 64 < mid_run[updates_local].count < final[updates_local].count
        assert mid_run[updates_local].count % FOLD_BATCH


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
