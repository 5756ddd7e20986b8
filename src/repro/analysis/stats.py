"""Replication statistics for benchmark tables.

A single seeded run is deterministic but still one draw from the
workload distribution; benchmark conclusions ("3V's goodput is flat in
cluster size") should rest on several seeds.  This module provides the
tool the harness needs: mean with a Student-t confidence interval,
whose critical value comes from the closed-form t distribution (standard
library only).
"""

from __future__ import annotations

import dataclasses
import math
import typing


@dataclasses.dataclass(frozen=True)
class ConfidenceInterval:
    """A sample mean with its two-sided confidence interval."""

    mean: float
    low: float
    high: float
    n: int
    confidence: float

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2.0

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.half_width:.3f}"


def _t_coverage(theta: float, df: int) -> float:
    """``P(|T| <= sqrt(df) * tan(theta))`` for Student's t with integer
    ``df`` degrees of freedom, in closed form (Abramowitz & Stegun 26.7.3
    for odd ``df``, 26.7.4 for even)."""
    odd = df % 2
    sin, cos = math.sin(theta), math.cos(theta)
    total, term = 0.0, 1.0
    for k in range(1, df // 2 + 1):
        total += term
        term *= cos * cos * (2 * k - 1 + odd) / (2 * k + odd)
    if odd:
        return 2 / math.pi * (theta + sin * cos * total)
    return sin * total


def t_critical(confidence: float, df: int) -> float:
    """The two-sided Student-t critical value: ``t`` with
    ``P(|T| <= t) = confidence``, the ``(1 + confidence) / 2`` quantile,
    by bisection on ``theta = atan(t / sqrt(df))``."""
    low, high = 0.0, math.pi / 2
    for _ in range(100):
        mid = (low + high) / 2
        if _t_coverage(mid, df) < confidence:
            low = mid
        else:
            high = mid
    return math.sqrt(df) * math.tan((low + high) / 2)


def mean_ci(values: typing.Sequence[float],
            confidence: float = 0.95) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``values``.

    A single observation gets a degenerate (zero-width) interval.
    """
    if not values:
        raise ValueError("mean_ci of empty sample")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence out of range: {confidence}")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return ConfidenceInterval(mean, mean, mean, 1, confidence)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    sem = math.sqrt(variance / n)
    t = t_critical(confidence, n - 1)
    return ConfidenceInterval(
        mean=mean, low=mean - t * sem, high=mean + t * sem,
        n=n, confidence=confidence,
    )

