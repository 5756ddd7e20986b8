"""Arrival processes for driving open-loop workloads.

Transactions arrive according to a Poisson process (exponential
inter-arrival times) — the standard open-loop model for data recording
systems, where calls/sales/observations arrive regardless of how the
database is doing.  Arrival times come from a named RNG stream, so two
systems driven with the same seed see identical workloads
(paired-comparison benchmarking).

Two driving modes share the same sampled process, and both feed the
simulator through a :class:`StreamingDriver` — one self-rescheduling
callback, so exactly one pending arrival per transaction class at any
instant — and differ only in *when* specs are built:

* :func:`drive` builds every spec of its class up front, in index order
  (the workload stream's draw order, so the caller's order of classes
  decides every spec), and releases each one as it is submitted.  The
  event heap never holds the workload; spec memory starts O(arrivals)
  and falls as the run goes.
* :func:`drive_streaming` builds each spec at its own arrival time from
  the lazy :func:`poisson_arrival_times` generator, so a
  million-transaction run never materializes its workload.  Each class
  draws from its own stream, so laziness cannot change the sampled
  times — only *when* specs are built.
"""

from __future__ import annotations

import collections
import typing

from repro.sim.distributions import RngRegistry


def poisson_arrival_times(
    rngs: RngRegistry,
    stream: str,
    rate: float,
    duration: float,
    start: float = 0.0,
) -> typing.Iterator[float]:
    """Lazily sample a Poisson arrival process.

    Args:
        rngs: RNG registry.
        stream: Stream name (distinct per transaction class).
        rate: Mean arrivals per time unit.
        duration: Length of the arrival window.
        start: Window start time.

    Yields:
        Sorted arrival times within ``[start, start + duration)``.
    """
    if rate <= 0:
        return
    rng = rngs.stream(stream)
    t = start
    while True:
        t += rng.expovariate(rate)
        if t >= start + duration:
            return
        yield t


def poisson_arrivals(
    rngs: RngRegistry,
    stream: str,
    rate: float,
    duration: float,
    start: float = 0.0,
) -> typing.List[float]:
    """Materialized :func:`poisson_arrival_times` (same samples)."""
    return list(poisson_arrival_times(rngs, stream, rate, duration, start))


def uniform_arrivals(
    rate: float, duration: float, start: float = 0.0
) -> typing.List[float]:
    """Deterministic, evenly spaced arrivals (for exactly scripted tests)."""
    if rate <= 0:
        return []
    step = 1.0 / rate
    times = []
    t = start + step
    while t < start + duration:
        times.append(t)
        t += step
    return times


def drive(system, arrivals: typing.Iterable[float], make_spec) -> int:
    """Submit one transaction per arrival time, every spec built now.

    Args:
        system: Any system with ``sim`` and ``submit``.
        arrivals: Arrival times, ascending.
        make_spec: ``make_spec(index) -> TransactionSpec``, called here for
            every index in order.

    Returns:
        Number of transactions scheduled.
    """
    times = list(arrivals)
    specs = collections.deque(make_spec(index) for index in range(len(times)))
    StreamingDriver(system, times, lambda _index: specs.popleft())
    return len(times)


class StreamingDriver:
    """Submits one transaction class from a lazy arrival iterator.

    Holds exactly one pending simulator event: when it fires, the next
    spec is taken from ``make_spec`` *at its own arrival time* and
    submitted, and the following arrival is scheduled.  With a
    ``make_spec`` that builds, workload memory is O(1) in run length;
    ``count`` reports how many transactions were submitted.
    """

    __slots__ = ("_sim", "_system", "_arrivals", "_make_spec", "count")

    def __init__(self, system, arrivals: typing.Iterator[float], make_spec):
        self._sim = system.sim
        self._system = system
        self._arrivals = iter(arrivals)
        self._make_spec = make_spec
        self.count = 0
        self._schedule_next()

    def _schedule_next(self) -> None:
        time = next(self._arrivals, None)
        if time is not None:
            self._sim.schedule_at(time, self._fire)

    def _fire(self) -> None:
        self._system.submit(self._make_spec(self.count))
        self.count += 1
        self._schedule_next()


def drive_streaming(system, arrivals: typing.Iterator[float],
                    make_spec) -> StreamingDriver:
    """Schedule a transaction class lazily, one arrival at a time.

    The streaming counterpart of :func:`drive`: same
    ``make_spec(index) -> TransactionSpec`` contract, but specs are built
    on demand as the simulation reaches each arrival.  Read
    ``driver.count`` after the run for the number submitted.
    """
    return StreamingDriver(system, arrivals, make_spec)
