"""Unit tests for the discrete-event simulation kernel.

The generator processes, timeouts and condition events exercised here are
the reference kernel in ``tests/reference_process.py``, which the
generator-driven differentials run on; ``src/`` waits with callbacks and
runs its control plane as :class:`~repro.sim.events.Machine` objects.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import Machine, Simulator
from repro.sim.resources import Resource, Store
from tests.reference_process import (
    AllOf,
    AnyOf,
    Process,
    ProcessKilled,
    Timeout,
)


@pytest.fixture
def sim():
    return Simulator()


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_callbacks_run_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self, sim):
        order = []
        for label in "abcde":
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_advances_clock_exactly(self, sim):
        sim.schedule(2.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_past_raises(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_run_until_excludes_later_events(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=4.0)
        assert fired == []
        assert sim.pending_count == 1

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_nested_scheduling(self, sim):
        seen = []

        def outer():
            seen.append(sim.now)
            sim.schedule(5.0, seen.append, sim.now + 5.0)

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [1.0, 6.0]


class TestEvents:
    def test_succeed_delivers_value(self, sim):
        event = sim.event()
        event.succeed(42)
        sim.run()
        assert event.ok
        assert event.value == 42

    def test_value_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_double_succeed_raises(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_raises_in_waiter(self, sim):
        event = sim.event()
        event.fail(RuntimeError("boom"))
        caught = []

        def waiter():
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))

        Process(sim, waiter())
        sim.run()
        assert caught == ["boom"]

    def test_fail_requires_exception(self, sim):
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")

    def test_timeout_fires_at_right_time(self, sim):
        times = []

        def proc():
            yield Timeout(sim, 2.5)
            times.append(sim.now)

        Process(sim, proc())
        sim.run()
        assert times == [2.5]

    def test_timeout_value(self, sim):
        result = []

        def proc():
            value = yield Timeout(sim, 1.0, value="payload")
            result.append(value)

        Process(sim, proc())
        sim.run()
        assert result == ["payload"]

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            Timeout(sim, -0.1)

    def test_all_of_waits_for_every_event(self, sim):
        results = []

        def proc():
            values = yield AllOf(sim, [Timeout(sim, 1, "a"), Timeout(sim, 3, "b")])
            results.append((sim.now, values))

        Process(sim, proc())
        sim.run()
        assert results == [(3.0, ["a", "b"])]

    def test_all_of_empty_triggers_immediately(self, sim):
        results = []

        def proc():
            values = yield AllOf(sim, [])
            results.append(values)

        Process(sim, proc())
        sim.run()
        assert results == [[]]

    def test_any_of_returns_first(self, sim):
        results = []

        def proc():
            first = yield AnyOf(sim, [Timeout(sim, 5, "slow"), Timeout(sim, 1, "fast")])
            results.append((sim.now, first.value))

        Process(sim, proc())
        sim.run()
        assert results == [(1.0, "fast")]

    def test_callback_on_already_triggered_event(self, sim):
        event = sim.event()
        event.succeed("x")
        sim.run()
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        sim.run()
        assert seen == ["x"]


class TestProcesses:
    def test_process_return_value(self, sim):
        def proc():
            yield Timeout(sim, 1.0)
            return "done"

        process = Process(sim, proc())
        sim.run()
        assert process.value == "done"

    def test_process_requires_generator(self, sim):
        with pytest.raises(SimulationError):
            Process(sim, lambda: None)

    def test_process_waiting_on_process(self, sim):
        log = []

        def child():
            yield Timeout(sim, 2.0)
            return 7

        def parent():
            value = yield Process(sim, child())
            log.append((sim.now, value))

        Process(sim, parent())
        sim.run()
        assert log == [(2.0, 7)]

    def test_yielding_non_event_raises(self, sim):
        def bad():
            yield 42

        Process(sim, bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_unhandled_exception_propagates(self, sim):
        def bad():
            yield Timeout(sim, 1.0)
            raise ValueError("bug in model")

        Process(sim, bad())
        with pytest.raises(ValueError):
            sim.run()

    def test_kill_runs_finally(self, sim):
        cleaned = []

        def proc():
            try:
                yield Timeout(sim, 100.0)
            finally:
                cleaned.append(sim.now)

        process = Process(sim, proc())
        sim.schedule(5.0, process.kill)
        sim.run()
        assert cleaned == [5.0]
        assert not process.is_alive

    def test_kill_finished_process_noop(self, sim):
        def proc():
            yield Timeout(sim, 1.0)

        process = Process(sim, proc())
        sim.run()
        process.kill()
        sim.run()

    def test_killed_process_fails_waiters(self, sim):
        outcomes = []

        def victim():
            yield Timeout(sim, 100.0)

        target = Process(sim, victim())

        def waiter():
            try:
                yield target
            except ProcessKilled:
                outcomes.append("killed")

        Process(sim, waiter())
        sim.schedule(1.0, target.kill)
        sim.run()
        assert outcomes == ["killed"]

    def test_run_until_triggered(self, sim):
        def proc():
            yield Timeout(sim, 4.0)
            return "ok"

        process = Process(sim, proc())
        sim.run_until_triggered(process)
        assert process.value == "ok"
        assert sim.now == 4.0

    def test_run_until_triggered_drained_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            sim.run_until_triggered(event)

    def test_run_until_triggered_limit_raises(self, sim):
        def tick():
            while True:
                yield Timeout(sim, 1.0)

        Process(sim, tick())
        event = sim.event()
        with pytest.raises(SimulationError):
            sim.run_until_triggered(event, limit=10.0)


class TestMachine:
    """A :class:`Machine` costs the scheduler what a process did: one
    callback to start, one to end, two to be killed."""

    class Ticker(Machine):
        def __init__(self, sim, log, ticks=None):
            self.log = log
            self.ticks = ticks
            super().__init__(sim)

        def _start(self):
            self.log.append(("start", self.sim.now))
            self.sim.schedule(1.0, self._tick)

        def _tick(self):
            if self.triggered:
                return
            self.log.append(("tick", self.sim.now))
            if self.ticks is not None and len(self.log) > self.ticks:
                self.succeed("ended")
                return
            self.sim.schedule(1.0, self._tick)

        def _on_stop(self):
            self.log.append(("stop", self.sim.now))

    def test_start_is_one_scheduled_callback(self, sim):
        log = []
        self.Ticker(sim, log)
        assert log == [] and sim.scheduled_count == 1
        sim.run(until=2.5)
        assert log == [("start", 0.0), ("tick", 1.0), ("tick", 2.0)]

    def test_the_machine_is_the_event_of_its_end(self, sim):
        log = []
        machine = self.Ticker(sim, log, ticks=2)
        sim.run_until_triggered(machine)
        assert machine.value == "ended" and sim.now == 2.0
        machine.kill()  # a no-op once ended
        sim.run()
        assert ("stop", 2.0) not in log

    def test_a_kill_lands_one_step_late(self, sim):
        log = []
        machine = self.Ticker(sim, log)
        # The tick due at 3.0 was scheduled before the stop, so it runs.
        sim.schedule_at(3.0, machine.kill)
        sim.run(until=10.0)
        assert log == [("start", 0.0), ("tick", 1.0), ("tick", 2.0),
                       ("tick", 3.0), ("stop", 3.0)]
        assert machine.triggered and not machine.ok
        assert isinstance(machine.exception, SimulationError)

    def test_a_kill_costs_a_stop_and_a_failed_trigger(self, sim):
        machine = self.Ticker(sim, [])
        sim.run(until=0.5)
        before = sim.scheduled_count
        machine.kill()
        machine.kill()  # a second kill does not schedule a second stop
        sim.run(until=0.5)
        assert sim.scheduled_count - before == 2


class TestResourceWaiters:
    """``Resource`` serves its callback waiters (``acquire``) from one
    FIFO queue."""

    def test_acquire_is_granted_on_the_spot_without_calling_back(self, sim):
        executor = Resource(sim, capacity=2)
        calls = []
        assert executor.acquire(calls.append, "a") is True
        assert executor.acquire(calls.append, "b") is True
        sim.run()
        assert calls == [] and sim.scheduled_count == 0
        assert executor.in_use == 2 and executor.total_waits == 0

    def test_waiters_are_granted_in_arrival_order(self, sim):
        executor = Resource(sim, capacity=1)
        order = []
        assert executor.acquire(order.append, "holder") is True
        for name in ("waiter-1", "waiter-2", "waiter-3"):
            assert executor.acquire(
                lambda name=name: order.append((name, sim.now))) is False
        assert executor.queue_length == 3

        for time in (1.0, 2.0, 3.0):
            sim.schedule_at(time, executor.release)
        sim.run()
        assert order == [("waiter-1", 1.0), ("waiter-2", 2.0),
                         ("waiter-3", 3.0)]
        # Granted units are handed over, never returned, while waiters queue.
        assert executor.in_use == 1 and executor.queue_length == 0
        assert executor.total_waits == 3
        assert executor.total_wait_time == pytest.approx(1.0 + 2.0 + 3.0)

    def test_waiting_callback_runs_after_the_releasing_callback(self, sim):
        executor = Resource(sim, capacity=1)
        order = []
        executor.acquire(order.append, "unused")
        executor.acquire(order.append, "waiter")

        def holder_finishes():
            executor.release()
            order.append("rest of the holder's callback")

        sim.schedule(1.0, holder_finishes)
        sim.run()
        assert order == ["rest of the holder's callback", "waiter"]

    def test_release_without_holder_raises(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim).release()


class TestStoreConsumer:
    """``Store.consume``: direct hand-over, with the freeze / thaw /
    backlog rules a crashed node's mailbox depends on."""

    @pytest.fixture
    def seen(self):
        return []

    @pytest.fixture
    def mailbox(self, sim, seen):
        store = Store(sim)
        store.consume(seen.append)
        return store

    def test_put_hands_over_inside_the_call(self, sim, mailbox, seen):
        mailbox.put("a")
        assert seen == ["a"]
        assert sim.scheduled_count == 0 and len(mailbox) == 0
        assert mailbox.total_puts == 1

    def test_put_while_frozen_queues_until_thaw(self, sim, mailbox, seen):
        mailbox.freeze()
        mailbox.put("a")
        mailbox.put("b")
        sim.run()
        assert seen == [] and len(mailbox) == 2
        mailbox.thaw()
        assert seen == [], "the backlog is pumped, not drained inline"
        sim.run()
        assert seen == ["a", "b"]

    def test_backlog_is_pumped_one_item_per_scheduled_callback(
            self, sim, mailbox, seen):
        mailbox.freeze()
        for item in "abc":
            mailbox.put(item)
        mailbox.thaw()
        sim.schedule_now(seen.append, "other same-tick work")
        before = sim.scheduled_count
        sim.run()
        assert seen == ["a", "other same-tick work", "b", "c"]
        assert sim.scheduled_count - before == 2  # pumps for "b" and "c"

    def test_put_during_a_backlog_queues_behind_it(self, sim, mailbox, seen):
        mailbox.freeze()
        mailbox.put("a")
        mailbox.put("b")
        mailbox.thaw()
        mailbox.put("c")  # not frozen, but "a" and "b" are still ahead
        assert seen == []
        sim.run()
        assert seen == ["a", "b", "c"]
        mailbox.put("d")  # backlog gone: direct again
        assert seen == ["a", "b", "c", "d"]

    def test_freeze_between_thaw_and_pump_hands_over_nothing(
            self, sim, mailbox, seen):
        mailbox.freeze()
        mailbox.put("a")
        mailbox.thaw()
        mailbox.freeze()  # same tick, before the pump callback runs
        sim.run()
        assert seen == []
        mailbox.thaw()
        sim.run()
        assert seen == ["a"]

    def test_freeze_mid_drain_stops_at_the_next_item(self, sim, mailbox, seen):
        mailbox.freeze()
        for item in "abc":
            mailbox.put(item)
        mailbox.thaw()
        sim.schedule_now(mailbox.freeze)  # after "a"'s pump, before "b"'s
        sim.run()
        assert seen == ["a"]
        mailbox.thaw()
        mailbox.thaw()  # a second thaw must not start a second pump
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_items_queued_before_consume_are_pumped(self, sim):
        store = Store(sim)
        store.put("early")
        seen = []
        store.consume(seen.append)
        sim.run()
        store.put("late")
        assert seen == ["early", "late"]
