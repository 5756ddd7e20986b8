"""Replication statistics for benchmark tables.

A single seeded run is deterministic but still one draw from the
workload distribution; benchmark conclusions ("3V's goodput is flat in
cluster size") should rest on several seeds.  This module provides the
tool the harness needs: mean with a Student-t confidence interval.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.errors import ReproError


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


def _scipy_stats():
    """``scipy.stats``, loaded on first use (it is most of an eager
    ``import repro``, and no simulation run needs it)."""
    try:
        from scipy import stats
    except ImportError as error:
        raise ReproError(
            "confidence intervals need scipy; install the "
            "'analysis' extra (pip install 'repro[analysis]')"
        ) from error
    return stats


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
    t = _scipy_stats().t.ppf((1 + confidence) / 2, df=n - 1)
    return ConfidenceInterval(
        mean=mean, low=mean - t * sem, high=mean + t * sem,
        n=n, confidence=confidence,
    )

