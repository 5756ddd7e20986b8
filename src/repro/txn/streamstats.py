"""Online distribution statistics for streaming histories.

A materialized :class:`~repro.txn.history.History` keeps every latency
value and computes exact percentiles at the end of the run; a streaming
history cannot.  This module provides the O(1)-memory machinery it folds
values into instead:

* :class:`ExactSum` — an incremental exact summation (a running total
  kept as floats that lose nothing, :func:`math.fsum` doing the adding),
  so streaming means are exactly rounded and therefore
  *order-independent*: folding values in retirement order yields
  bit-identical means to summing them in submission order.
* :class:`P2Quantile` — the Jain & Chlamtac P² online quantile estimator
  (five markers, parabolic adjustment), used for percentiles once a
  population outgrows the reservoir.
* :class:`ReservoirSample` — Algorithm R with a seeded RNG.  While the
  population fits inside the reservoir it *is* the population, so
  small-run percentiles are exact — the differential oracle against the
  materialized path.
* :class:`StreamingStats` — one population's count / exact mean / max /
  reservoir / P² markers, summarized as a :class:`LatencySummary`.  It
  folds :data:`FOLD_BATCH` values at a time through each primitive's
  ``extend`` — one loop per estimator instead of four method calls per
  value — and starts the P² markers only when the population outgrows
  the reservoir.

:class:`LatencySummary` and :func:`percentile` live here (rather than in
``repro.analysis.metrics``, which re-exports them) because the streaming
history is a ``repro.txn`` citizen and the txn layer must not import the
analysis layer above it.
"""

from __future__ import annotations

import dataclasses
import math
import random
import typing
import zlib


def percentile(values: typing.Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    lower = int(position)
    fraction = position - lower
    if lower + 1 >= len(ordered):
        return ordered[-1]
    return ordered[lower] * (1 - fraction) + ordered[lower + 1] * fraction


@dataclasses.dataclass
class LatencySummary:
    """Distribution summary of one latency population."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def of(cls, values: typing.Sequence[float]) -> "LatencySummary":
        if not values:
            return cls(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, max=0.0)
        return cls(
            count=len(values),
            mean=math.fsum(values) / len(values),
            p50=percentile(values, 50),
            p95=percentile(values, 95),
            p99=percentile(values, 99),
            max=max(values),
        )


class ExactSum:
    """Incremental exactly-rounded float summation.

    The running total is held *exactly*, as a short list of floats whose
    mathematical sum is the sum of everything added; ``value`` rounds it
    once, as :func:`math.fsum` over all the values would.  The result
    therefore depends only on the *multiset* of added values, never on
    their order or on how they were batched — the property that lets a
    streaming history fold latencies in retirement order and still match
    a materialized history bit for bit.
    """

    __slots__ = ("_partials",)

    def __init__(self) -> None:
        self._partials: typing.List[float] = []

    def add(self, x: float) -> None:
        self.extend((x,))

    def extend(self, values: typing.Iterable[float]) -> None:
        # fsum returns the exact sum of its arguments, rounded once.  What
        # that rounding dropped is again an exact sum of floats (the terms
        # and minus the result), so peeling rounded totals off until
        # nothing is left gives partials that lose nothing: one or two in
        # practice, each at most half an ulp of the one before.
        terms = [*self._partials, *values]
        partials = []
        total = math.fsum(terms)
        while total:
            if not math.isfinite(total):
                raise ValueError(f"ExactSum of a non-finite value: {total}")
            partials.append(total)
            terms.append(-total)
            total = math.fsum(terms)
        self._partials = partials

    @property
    def value(self) -> float:
        return math.fsum(self._partials)


def _p2_height(below: float, height: float, above: float,
               n_below: float, n: float, n_above: float,
               step: float) -> float:
    """New height of a P² marker that moves ``step`` (±1) positions.

    The piecewise-parabolic prediction when it lands strictly between
    the neighbouring heights, else linear interpolation toward the
    neighbour on the side of the move.
    """
    candidate = height + step / (n_above - n_below) * (
        (n - n_below + step) * (above - height) / (n_above - n)
        + (n_above - n - step) * (height - below) / (n - n_below)
    )
    if below < candidate < above:
        return candidate
    if step > 0.0:
        return height + step * (above - height) / (n_above - n)
    return height + step * (below - height) / (n_below - n)


class P2Quantile:
    """Jain & Chlamtac's P² online estimator of one quantile.

    Five markers track the minimum, the quantile, the maximum, and the
    two midpoints; each observation shifts marker positions and adjusts
    heights with a piecewise-parabolic (P²) formula.  O(1) memory, O(1)
    per observation, no distributional assumptions.

    The first marker's position is always 1 and the outer two desired
    positions are never read, so only positions 2–5 and the three
    interior desired positions are stored.
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError(f"P2 quantile must be in (0, 1): {q}")
        self.q = q
        self._heights: typing.List[float] = []
        self._positions = (2.0, 3.0, 4.0, 5.0)
        self._desired = (1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q)
        self._increments = (q / 2.0, q, (1.0 + q) / 2.0)

    def extend(self, values: typing.Iterable[float]) -> None:
        """Observe ``values`` in order: one loop, the marker state held in
        locals and written back once."""
        values = iter(values)
        heights = self._heights
        if len(heights) < 5:
            # The first five observations are the initial markers.
            for x in values:
                heights.append(x)
                if len(heights) == 5:
                    break
            heights.sort()
            if len(heights) < 5:
                return
        h0, h1, h2, h3, h4 = heights
        n1, n2, n3, n4 = self._positions
        d1, d2, d3 = self._desired
        i1, i2, i3 = self._increments
        for x in values:
            # Find the cell containing x, clamp the extreme markers, and
            # shift the positions of the markers above the cell.
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
            d1 += i1
            d2 += i2
            d3 += i3
            # Adjust the three interior markers toward their desired
            # positions.
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
        heights[:] = (h0, h1, h2, h3, h4)
        self._positions = (n1, n2, n3, n4)
        self._desired = (d1, d2, d3)

    @property
    def estimate(self) -> float:
        """Current quantile estimate (exact while fewer than 5 samples)."""
        heights = self._heights
        if not heights:
            raise ValueError("P2 estimate of empty population")
        if len(heights) < 5:
            return percentile(heights, self.q * 100.0)
        return heights[2]


class ReservoirSample:
    """Algorithm R uniform reservoir over a stream, with a seeded RNG.

    While the stream is no longer than ``capacity`` the reservoir holds
    it *entirely* (in arrival order), so percentiles computed from it are
    exact.  Beyond that it is a uniform sample.  Determinism: the RNG is
    supplied by the caller (a named stream derived from the experiment
    seed), so reservoir contents are bit-identical across hosts, worker
    counts, and backends.
    """

    __slots__ = ("capacity", "_rng", "_seen", "values")

    def __init__(self, capacity: int, rng: random.Random):
        if capacity < 1:
            raise ValueError(f"reservoir capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._rng = rng
        self._seen = 0
        self.values: typing.List[float] = []

    @property
    def seen(self) -> int:
        return self._seen

    @property
    def exact(self) -> bool:
        """Whether the reservoir still holds the entire stream."""
        return self._seen <= self.capacity

    def extend(self, values: typing.Sequence[float]) -> None:
        """Offer ``values`` in order: a ``list.extend`` while there is
        room, one seeded draw per value after."""
        kept = self.values
        capacity = self.capacity
        seen = self._seen
        room = capacity - seen
        if room > 0:
            kept.extend(values[:room])
            values = values[room:]
            seen = len(kept)
        randrange = self._rng.randrange
        for x in values:
            seen += 1
            slot = randrange(seen)
            if slot < capacity:
                kept[slot] = x
        self._seen = seen


#: Default reservoir size: small runs (the differential-oracle regime)
#: stay exact; large runs pay 32 KiB per population.
DEFAULT_RESERVOIR = 4096

#: Values a :class:`StreamingStats` collects before folding them, one
#: loop per estimator.  A population's fold depends only on the order of
#: its own values, so the batch size cannot change any summary.
FOLD_BATCH = 256


class StreamingStats:
    """Count / exact mean / max / percentiles of one streamed population.

    ``summary()`` returns exact percentiles (from the complete reservoir)
    while the population fits in ``capacity`` — bit-identical to
    :meth:`LatencySummary.of` over the materialized values — and P²
    estimates beyond that.  The mean is exactly rounded (order-independent)
    at every size; count and max are always exact.

    ``add`` only queues the value; every :data:`FOLD_BATCH` values, and
    whenever ``summary()`` is read, the queue is folded in arrival order.
    Each estimator's state depends only on the sequence of values it has
    seen, so where the sequence is cut into batches changes no result.
    """

    __slots__ = ("_sum", "_count", "_max", "_reservoir", "_p2", "_pending")

    QUANTILES = (0.50, 0.95, 0.99)

    def __init__(self, rng: random.Random,
                 capacity: int = DEFAULT_RESERVOIR):
        self._sum = ExactSum()
        self._count = 0
        self._max = 0.0
        self._reservoir = ReservoirSample(capacity, rng)
        #: Created by the drain that first overflows the reservoir: until
        #: then the reservoir is the population and nothing reads them.
        self._p2: typing.Tuple[P2Quantile, ...] = ()
        #: Values added since the last drain, in arrival order.
        self._pending: typing.List[float] = []

    @property
    def count(self) -> int:
        return self._count + len(self._pending)

    def add(self, x: float) -> None:
        pending = self._pending
        pending.append(x)
        if len(pending) >= FOLD_BATCH:
            self._drain()

    def _drain(self) -> None:
        """Fold the pending values, in order, into every estimator."""
        batch = self._pending
        if not batch:
            return
        top = max(batch)
        if top > self._max or self._count == 0:
            self._max = top
        self._count += len(batch)
        self._sum.extend(batch)
        reservoir = self._reservoir
        if not self._p2 and self._count > reservoir.capacity:
            # The reservoir still holds every earlier value in arrival
            # order, so the estimators start on the sequence they would
            # have seen from the first value.
            self._p2 = tuple(P2Quantile(q) for q in self.QUANTILES)
            for estimator in self._p2:
                estimator.extend(reservoir.values)
        for estimator in self._p2:
            estimator.extend(batch)
        reservoir.extend(batch)
        batch.clear()

    def summary(self) -> LatencySummary:
        self._drain()
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


def derived_rng(seed: int, name: str) -> random.Random:
    """A named RNG derived exactly like ``RngRegistry.stream``.

    Duplicating the (tiny) derivation here keeps ``repro.txn`` free of an
    import edge into ``repro.sim`` while producing the same streams for
    the same ``(seed, name)`` — callers that already hold a registry can
    pass its streams instead.
    """
    derived = (seed * 0x9E3779B1 + zlib.crc32(name.encode())) & 0xFFFFFFFF
    return random.Random(derived)
