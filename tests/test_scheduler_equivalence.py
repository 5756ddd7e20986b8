"""Differential tests: optimized Simulator vs the reference pure-heap kernel.

The optimized :class:`~repro.sim.simulator.Simulator` routes zero-delay
callbacks through a FIFO deque instead of the heap.  Its claim is *exact*
behavioural equivalence with the seed scheduler (preserved below as
:class:`ReferenceSimulator`): identical callback execution order,
identical clock readings at every callback, identical final clocks.
These tests drive randomized schedule programs — mixed zero/positive
delays, re-entrant scheduling from inside callbacks, nested generator
processes (the reference process kernel of ``tests/reference_process.py``)
— through both kernels and compare full execution logs.
"""

from __future__ import annotations

import heapq
import typing

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.events import Event
from tests.reference_process import Process, Timeout


class ReferenceSimulator:
    """The seed pure-heap scheduler, moved here verbatim from ``src/``.

    *Every* callback, zero-delay or not, goes through a single binary
    heap ordered by ``(time, sequence)``.  It is intentionally *not*
    optimized.  It shares the :class:`Event` machinery (and the reference
    :class:`Process`) with the real simulator, so it implements the same scheduling
    interface (including :meth:`schedule_now`, which here is just
    ``schedule(0.0, ...)`` — the seed behaviour).
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: list = []
        self._sequence = 0

    # ------------------------------------------------------------------
    # Scheduling primitives (same interface as Simulator)
    # ------------------------------------------------------------------

    def schedule(self, delay: float, callback, *args) -> None:
        """Run ``callback(*args)`` after ``delay`` units of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        self._sequence += 1
        heapq.heappush(self._heap, (self.now + delay, self._sequence, callback, args))

    def schedule_now(self, callback, *args) -> None:
        """Seed semantics: a zero-delay heap entry at ``(now, sequence)``."""
        self._sequence += 1
        heapq.heappush(self._heap, (self.now, self._sequence, callback, args))

    def schedule_at(self, time: float, callback, *args) -> None:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"schedule_at time {time!r} is in the past ({self.now!r})"
            )
        self._sequence += 1
        heapq.heappush(self._heap, (time, self._sequence, callback, args))

    def event(self) -> Event:
        return Event(self)

    # ------------------------------------------------------------------
    # Execution (verbatim seed implementation)
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next scheduled callback; ``False`` when drained."""
        if not self._heap:
            return False
        time, _seq, callback, args = heapq.heappop(self._heap)
        if time < self.now:
            raise SimulationError("event heap time went backwards")
        self.now = time
        callback(*args)
        return True

    def run(self, until: typing.Optional[float] = None) -> None:
        """Run until the heap drains or the clock reaches ``until``."""
        if until is None:
            while self.step():
                pass
            return
        if until < self.now:
            raise SimulationError(f"run until {until!r} is in the past ({self.now!r})")
        while self._heap and self._heap[0][0] <= until:
            self.step()
        self.now = until

    def run_until_triggered(self, event: Event, limit: float = float("inf")) -> None:
        """Run until ``event`` triggers (seed error semantics)."""
        while not event.triggered:
            if not self._heap:
                raise SimulationError("simulation drained before event triggered")
            if self._heap[0][0] > limit:
                raise SimulationError(f"event not triggered by time limit {limit!r}")
            self.step()

    def peek_time(self) -> typing.Optional[float]:
        """Simulated time of the next scheduled callback (``None`` if idle)."""
        return self._heap[0][0] if self._heap else None

    @property
    def pending_count(self) -> int:
        return len(self._heap)

    @property
    def scheduled_count(self) -> int:
        return self._sequence


#: A small palette of delays keeps schedules collision-rich (many events at
#: the same instant, where ordering bugs live) while exercising both the
#: zero-delay FIFO and the timed heap.  Both kernels do identical float
#: arithmetic, so exact comparison is safe.
DELAYS = st.sampled_from([0.0, 0.0, 0.0, 0.001, 0.001, 0.25, 1.0])

#: A schedule tree: each node is (delay, children).  Fired callbacks
#: schedule their children relative to their own firing time.
TREES = st.recursive(
    st.tuples(DELAYS, st.just(())),
    lambda node: st.tuples(DELAYS, st.lists(node, max_size=4)),
    max_leaves=40,
)
PROGRAMS = st.lists(TREES, min_size=1, max_size=8)


def run_callback_program(sim_class, program):
    """Execute a schedule-tree program; return the execution log."""
    sim = sim_class()
    log = []

    def fire(label, now_children):
        log.append((label, sim.now))
        for i, (delay, grandchildren) in enumerate(now_children):
            sim.schedule(delay, fire, f"{label}.{i}", grandchildren)

    for i, (delay, children) in enumerate(program):
        sim.schedule(delay, fire, str(i), children)
    sim.run()
    return log, sim.now


@given(program=PROGRAMS)
@settings(max_examples=60, deadline=None)
def test_callback_trees_equivalent(program):
    fast_log, fast_now = run_callback_program(Simulator, program)
    ref_log, ref_now = run_callback_program(ReferenceSimulator, program)
    assert fast_log == ref_log
    assert fast_now == ref_now


@given(program=PROGRAMS, until=st.sampled_from([0.0, 0.001, 0.5, 2.0]))
@settings(max_examples=40, deadline=None)
def test_bounded_run_equivalent(program, until):
    """run(until=...) stops at the same point and clock on both kernels."""

    def run_bounded(sim_class):
        sim = sim_class()
        log = []

        def fire(label, children):
            log.append((label, sim.now))
            for i, (delay, grandchildren) in enumerate(children):
                sim.schedule(delay, fire, f"{label}.{i}", grandchildren)

        for i, (delay, children) in enumerate(program):
            sim.schedule(delay, fire, str(i), children)
        sim.run(until=until)
        return log, sim.now, sim.pending_count

    assert run_bounded(Simulator) == run_bounded(ReferenceSimulator)


#: Process scripts: a sequence of timeout delays per process; processes are
#: started either at t=0 or from a staggered parent.
PROCESS_SCRIPTS = st.lists(
    st.lists(DELAYS, min_size=1, max_size=6), min_size=1, max_size=6
)


def run_process_program(sim_class, scripts):
    sim = sim_class()
    log = []

    def worker(pid, delays):
        for step, delay in enumerate(delays):
            log.append(("step", pid, step, sim.now))
            yield Timeout(sim, delay)
        log.append(("done", pid, sim.now))
        if delays and delays[0] == 0.0:
            # Re-entrant spawn: a process finishing at a FIFO instant
            # launches a nested child at the same instant.
            Process(sim, worker(f"{pid}+", [0.001]), name=f"{pid}+")

    for pid, delays in enumerate(scripts):
        Process(sim, worker(str(pid), delays), name=str(pid))
    sim.run()
    return log, sim.now


@given(scripts=PROCESS_SCRIPTS)
@settings(max_examples=60, deadline=None)
def test_nested_processes_equivalent(scripts):
    fast = run_process_program(Simulator, scripts)
    ref = run_process_program(ReferenceSimulator, scripts)
    assert fast == ref


def test_pending_and_scheduled_counts_agree():
    def load(sim_class):
        sim = sim_class()
        for delay in (0.0, 0.0, 1.0, 2.0):
            sim.schedule(delay, lambda: None)
        return sim

    fast, ref = load(Simulator), load(ReferenceSimulator)
    assert fast.pending_count == ref.pending_count == 4
    assert fast.scheduled_count == ref.scheduled_count == 4
    fast.step()
    ref.step()
    assert fast.pending_count == ref.pending_count == 3


def test_negative_delay_rejected_by_both():
    for sim_class in (Simulator, ReferenceSimulator):
        with pytest.raises(SimulationError):
            sim_class().schedule(-0.5, lambda: None)


class TestRunUntilTriggeredLimit:
    """Satellite fix: the non-trigger path advances the clock to the limit
    and reports how much work was still pending."""

    def test_clock_advances_to_limit_on_timeout(self):
        sim = Simulator()
        event = sim.event()
        sim.schedule(10.0, event.succeed)
        with pytest.raises(SimulationError) as excinfo:
            sim.run_until_triggered(event, limit=3.0)
        assert sim.now == 3.0
        assert "3.0" in str(excinfo.value)
        assert "1 callbacks pending" in str(excinfo.value)

    def test_triggered_before_limit_is_fine(self):
        sim = Simulator()
        event = sim.event()
        sim.schedule(1.0, event.succeed, "v")
        sim.run_until_triggered(event, limit=5.0)
        assert event.value == "v"
        assert sim.now == 1.0
