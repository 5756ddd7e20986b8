"""The discrete-event simulator core.

:class:`Simulator` owns the virtual clock and the event queues.  Everything
in the library — network delivery, transaction execution, version
advancement — runs as callbacks scheduled here, which makes every
simulation single-threaded, deterministic, and reproducible from a seed.

Two queues, one ordering
------------------------

Callbacks are logically ordered by ``(time, sequence_number)``: ties at the
same simulated time are broken by scheduling order, never by hash or
identity.  Physically the simulator keeps two structures:

* a binary heap for callbacks scheduled with a *positive* delay, and
* a plain FIFO deque for *zero-delay* callbacks (the overwhelmingly common
  case: every event trigger, state-machine start, and mailbox hand-off is
  a ``schedule(0.0, ...)``).

The split is an optimization only — it cannot change execution order.  A
zero-delay callback enters the deque at the current time with a fresh
(maximal) sequence number, and the clock never advances while the deque is
non-empty, so every deque entry's timestamp is exactly ``now``.  The only
candidates that could legally run before the deque head are heap entries
at the same time with a *smaller* sequence number (scheduled earlier with a
positive delay that has just come due); :meth:`step` checks exactly that.
``tests/test_scheduler_equivalence.py`` differential-tests this against
the pure-heap scheduler it replaced, on randomized schedules.
"""

from __future__ import annotations

import typing
from collections import deque
from heapq import heappop, heappush

from repro.errors import SimulationError
from repro.sim.events import Event

__all__ = ["Simulator"]


class Simulator:
    """A deterministic discrete-event simulator.

    Scheduled callbacks are ordered by ``(time, sequence_number)`` so ties are
    broken by scheduling order, never by hash or identity.

    Example:
        >>> sim = Simulator()
        >>> done = sim.event()
        >>> sim.schedule(5.0, lambda: done.succeed(sim.now))
        >>> sim.run_until_triggered(done)
        >>> done.value
        5.0
    """

    #: Run counters: summary field -> attribute (``System.counters``).
    COUNTERS = {"sim_events": "scheduled_count"}

    __slots__ = ("now", "_heap", "_fifo", "_sequence")

    def __init__(self):
        self.now: float = 0.0
        #: (time, sequence, callback, args) entries with time > scheduling now.
        self._heap: typing.List[tuple] = []
        #: (sequence, callback, args) entries due at the current time.
        self._fifo: typing.Deque[tuple] = deque()
        self._sequence: int = 0

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------

    def schedule(self, delay: float, callback, *args) -> None:
        """Run ``callback(*args)`` after ``delay`` units of simulated time."""
        if delay <= 0.0:
            if delay < 0.0:
                raise SimulationError(f"negative delay: {delay!r}")
            self._sequence += 1
            self._fifo.append((self._sequence, callback, args))
            return
        self._sequence += 1
        heappush(self._heap, (self.now + delay, self._sequence, callback, args))

    def schedule_now(self, callback, *args) -> None:
        """Run ``callback(*args)`` at the current time, after already pending
        same-time callbacks (identical to ``schedule(0.0, ...)``, minus the
        delay check)."""
        self._sequence += 1
        self._fifo.append((self._sequence, callback, args))

    def schedule_at(self, time: float, callback, *args) -> None:
        """Run ``callback(*args)`` at absolute simulated ``time``.

        Equivalent to ``schedule(time - now, ...)`` but without the
        float round-trip: the heap entry carries ``time`` exactly, so a
        caller keying state on a delivery timestamp (the network's batch
        coalescing) sees the identical value when the callback fires.
        """
        if time <= self.now:
            if time < self.now:
                raise SimulationError(
                    f"schedule_at time {time!r} is in the past ({self.now!r})"
                )
            self._sequence += 1
            self._fifo.append((self._sequence, callback, args))
            return
        self._sequence += 1
        heappush(self._heap, (time, self._sequence, callback, args))

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next scheduled callback.

        Returns:
            ``False`` if nothing was left to simulate.
        """
        fifo = self._fifo
        heap = self._heap
        if fifo:
            # Every fifo entry is due at exactly `now`; a heap entry beats it
            # only when due at the same time with an older sequence number.
            if heap:
                head = heap[0]
                if head[0] <= self.now and head[1] < fifo[0][0]:
                    heappop(heap)
                    head[2](*head[3])
                    return True
            _seq, callback, args = fifo.popleft()
            callback(*args)
            return True
        if not heap:
            return False
        time, _seq, callback, args = heappop(heap)
        if time < self.now:
            raise SimulationError("event heap time went backwards")
        self.now = time
        callback(*args)
        return True

    def run(self, until: typing.Optional[float] = None) -> None:
        """Run until the queues drain or the clock reaches ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, mirroring SimPy semantics.
        """
        # The body inlines step() with the queues and heap functions bound to
        # locals: this loop is the single hottest path of every simulation.
        fifo = self._fifo
        heap = self._heap
        fifo_pop = fifo.popleft
        if until is None:
            while True:
                if fifo:
                    if heap:
                        head = heap[0]
                        if head[0] <= self.now and head[1] < fifo[0][0]:
                            heappop(heap)
                            head[2](*head[3])
                            continue
                    _seq, callback, args = fifo_pop()
                    callback(*args)
                elif heap:
                    time, _seq, callback, args = heappop(heap)
                    if time < self.now:
                        raise SimulationError("event heap time went backwards")
                    self.now = time
                    callback(*args)
                else:
                    return
        if until < self.now:
            raise SimulationError(f"run until {until!r} is in the past ({self.now!r})")
        while True:
            if fifo:
                if heap:
                    head = heap[0]
                    if head[0] <= self.now and head[1] < fifo[0][0]:
                        heappop(heap)
                        head[2](*head[3])
                        continue
                _seq, callback, args = fifo_pop()
                callback(*args)
            elif heap and heap[0][0] <= until:
                time, _seq, callback, args = heappop(heap)
                if time < self.now:
                    raise SimulationError("event heap time went backwards")
                self.now = time
                callback(*args)
            else:
                break
        self.now = until

    def run_until_triggered(self, event: Event, limit: float = float("inf")) -> None:
        """Run until ``event`` triggers.

        Args:
            event: The event to wait for.
            limit: Safety bound on simulated time.  When the next scheduled
                callback lies beyond ``limit``, the clock is advanced to
                exactly ``limit`` (consistent with ``run(until=...)``) and a
                :class:`SimulationError` reporting the pending callback count
                is raised.

        Raises:
            SimulationError: If the queues drain or ``limit`` passes first.
        """
        while not event.triggered:
            if not self._fifo:
                if not self._heap:
                    raise SimulationError(
                        "simulation drained before event triggered"
                    )
                if self._heap[0][0] > limit:
                    if limit > self.now:
                        self.now = limit
                    raise SimulationError(
                        f"event not triggered by time limit {limit!r} "
                        f"({self.pending_count} callbacks pending)"
                    )
            self.step()

    def peek_time(self) -> typing.Optional[float]:
        """Simulated time of the next scheduled callback (``None`` if idle)."""
        if self._fifo:
            return self.now
        if self._heap:
            return self._heap[0][0]
        return None

    @property
    def pending_count(self) -> int:
        """Number of callbacks currently scheduled."""
        return len(self._heap) + len(self._fifo)

    @property
    def scheduled_count(self) -> int:
        """Total callbacks ever scheduled — the benchmarks' event counter."""
        return self._sequence
