"""Latency, throughput, wait, and staleness summaries.

These functions turn a :class:`~repro.txn.history.History` into the numbers
the benchmark tables report.  All of them are protocol-agnostic: the same
summaries are computed for 3V and every baseline, so comparisons are
apples-to-apples.  The distributions are reads of the history's one fold
(:meth:`~repro.txn.history.History.stats`), which a caller wanting several
of them from a retaining history makes once and reads itself.
"""

from __future__ import annotations

import bisect
import dataclasses
import typing

from repro.txn.history import History, TxnKind

# The exact percentile function and the summary container live with the
# streaming statistics (`repro.txn.streamstats`) so the history's fold can
# build summaries without importing the analysis layer; this module
# re-exports them under their historic names.
from repro.txn.streamstats import LatencySummary, percentile

__all__ = [
    "LatencySummary",
    "StallSummary",
    "advancement_stalls",
    "latency_summary",
    "max_remote_wait",
    "percentile",
    "staleness_summary",
    "throughput",
    "wait_summary",
]


def latency_summary(
    history: History,
    kind: typing.Optional[str] = None,
    which: str = "local",
) -> LatencySummary:
    """Latency distribution of committed transactions.

    Args:
        kind: Restrict to one :class:`~repro.txn.history.TxnKind`.
        which: ``"local"`` (user-perceived root commit) or ``"global"``
            (whole tree completed); anything else raises ``ValueError``.
    """
    return history.stats().latency(kind, which)


def throughput(history: History, duration: float,
               kind: typing.Optional[str] = None) -> float:
    """Committed transactions per time unit over ``duration``."""
    if duration <= 0:
        raise ValueError(f"duration must be > 0: {duration}")
    return history.count(kind) / duration


def wait_summary(history: History, kind: typing.Optional[str] = None
                 ) -> typing.Dict[str, float]:
    """Total wait time per :class:`~repro.txn.history.WaitReason`,
    exactly rounded."""
    return history.stats().waits(kind)


def max_remote_wait(history: History, kind: typing.Optional[str] = None
                    ) -> float:
    """Largest remote-activity wait any committed transaction suffered —
    Theorem 4.2 says this is exactly 0 for well-behaved 3V traffic."""
    return history.stats().max_remote_wait(kind)


# ----------------------------------------------------------------------
# Staleness
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StallSummary:
    """What the advancement liveness watchdog found in one run.

    A *stall* is a span longer than the budget with no read-version
    advancement (no phase-3 completion).  Reads keep being served during
    a stall — at the frozen read version — so the watchdog also reports
    the worst staleness any read submitted inside a stall span suffered
    (graceful degradation made measurable).
    """

    count: int = 0
    total: float = 0.0
    longest: float = 0.0
    staleness_max: float = 0.0
    stalled_at_end: bool = False


def advancement_stalls(
    history: History,
    horizon: float,
    budget: float,
    closed_at: typing.Optional[typing.Mapping[int, float]] = None,
) -> StallSummary:
    """Detect advancement liveness stalls over ``[0, horizon]``.

    Advancement progress points are the phase-3 completions (the moments
    the read version actually moved).  Any gap between consecutive
    progress marks — including run start to first advancement, and last
    advancement to ``horizon`` — that exceeds ``budget`` counts as one
    stall, measured from the moment the budget lapsed to the next
    progress mark.  A retiring history reports an empty summary: it keeps
    its advancement records, but the read records the staleness figure
    needs have retired.
    """
    if not history.retain or budget <= 0 or horizon <= 0:
        return StallSummary()
    points = sorted(
        record.phase3_done
        for record in history.advancements
        if record.phase3_done is not None and record.phase3_done <= horizon
    )
    marks = [0.0] + points + [horizon]
    spans = []
    for previous, current in zip(marks, marks[1:]):
        if current - previous > budget:
            spans.append((previous + budget, current))
    if not spans:
        return StallSummary()
    total = sum(end - start for start, end in spans)
    longest = max(end - start for start, end in spans)
    stalled_at_end = spans[-1][1] == horizon
    # Worst staleness suffered by a read submitted during a stall: the
    # cost of serving at the frozen read version while advancement is
    # wedged.  Uses the same closed_at convention as staleness_summary.
    if closed_at is None:
        closed_at = history.closed_at()
    # The spans are sorted and disjoint, so a read's span is the last one
    # starting at or before it: one bisection per read.
    starts = [start for start, _end in spans]
    staleness_max = 0.0
    for record in history.txns.values():
        if (record.aborted or record.kind != TxnKind.READ
                or record.version is None):
            continue
        submitted = record.submit_time
        index = bisect.bisect_right(starts, submitted) - 1
        if index < 0 or submitted >= spans[index][1]:
            continue
        closed = closed_at.get(record.version)
        if closed is not None:
            staleness_max = max(staleness_max, submitted - closed)
    return StallSummary(
        count=len(spans), total=total, longest=longest,
        staleness_max=staleness_max, stalled_at_end=stalled_at_end,
    )


def staleness_summary(
    history: History,
    closed_at: typing.Optional[typing.Mapping[int, float]] = None,
) -> LatencySummary:
    """Data staleness of committed reads.

    The staleness of a read is the age of its snapshot when the read was
    submitted: ``submit_time - closed_at[version]``, 0.0 while the version
    is still open.  A system serving fresh data (no versioning) has
    staleness 0 by construction.  ``closed_at`` overrides the history's
    own closure map (a retaining history only).
    """
    return history.stats(closed_at).staleness()
