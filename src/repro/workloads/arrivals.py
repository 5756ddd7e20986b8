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
instant — and differ only in *when* each spec's choices are drawn:

* :func:`drive` draws every arrival's choices of its class up front, in
  index order (the workload stream's draw order, so the caller's order
  of classes decides every spec), keeps them as small tuples, and builds
  the specs :data:`BUILD_AHEAD` at a time as the clock reaches them,
  dropping each choice once built and each spec once submitted.  The
  event heap never holds the workload, and at most one batch of specs
  exists ahead of the clock.
* :func:`drive_streaming` draws and builds each spec at its own arrival
  time from the lazy :func:`poisson_arrival_times` generator, so a
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


#: Specs :func:`drive` builds at a time, when the clock reaches the first
#: of them.  On the e2e ``record_8n`` workload (2-vCPU shared VM) a batch
#: of one ran 0.85x as fast, and 256 specs ahead of the clock hold about
#: 0.3 MB.
BUILD_AHEAD = 256


def drive(system, arrivals: typing.Iterable[float], draw, build) -> int:
    """Submit one transaction per arrival time, every choice drawn now.

    Args:
        system: Any system with ``sim`` and ``submit``.
        arrivals: Arrival times, ascending.
        draw: ``draw() -> choices``, every random draw of one spec; called
            here once per arrival, in order.
        build: ``build(index, choices) -> TransactionSpec``, which draws
            nothing; called :data:`BUILD_AHEAD` indices at a time, when
            the simulation reaches the first of them.

    Returns:
        Number of transactions scheduled.
    """
    times = list(arrivals)
    drawn = [draw() for _ in times]
    batches = collections.deque(
        drawn[start:start + BUILD_AHEAD]
        for start in range(0, len(drawn), BUILD_AHEAD))
    built: typing.Deque = collections.deque()

    def next_spec(index: int):
        if not built:
            batch = batches.popleft()
            built.extend(map(build, range(index, index + len(batch)), batch))
        return built.popleft()

    StreamingDriver(system, times, next_spec)
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

    The streaming counterpart of :func:`drive`: ``make_spec(index) ->
    TransactionSpec`` draws and builds each spec on demand as the
    simulation reaches its arrival.  Read ``driver.count`` after the run
    for the number submitted.
    """
    return StreamingDriver(system, arrivals, make_spec)
