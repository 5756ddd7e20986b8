"""Events and state machines for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence that callbacks can wait on.  Events
follow a small subset of the SimPy protocol: an event is created untriggered,
is eventually *succeeded* (with an optional value) or *failed* (with an
exception), and then runs its callbacks exactly once, in one scheduled
callback.  A callback added to an event that has already run its callbacks
is scheduled on its own at the current time, in deterministic FIFO order.

A :class:`Machine` is a control-plane activity — an advancement wave, a
policy's trigger loop, a lease monitor — written as explicit state: its
phase is a field and its continuations are callbacks on events, timers and
messages.  A machine is the event of its own end.

Both classes declare ``__slots__``: events are the single most frequently
allocated object in a simulation (every lock grant, gate and completion
round creates one), and slotted instances both allocate faster and make
the attribute loads in the trigger path cheaper.
"""

from __future__ import annotations

import typing

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator

__all__ = ["Event", "Machine", "Ticker", "after_trigger"]

# Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING: typing.Final[object] = object()


class Event:
    """A one-shot occurrence in simulated time.

    Args:
        sim: The owning simulator.

    Attributes:
        callbacks: Functions invoked with the event once it triggers.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_scheduled")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: typing.List[typing.Callable[["Event"], None]] = []
        self._value: typing.Any = _PENDING
        self._exception: typing.Optional[BaseException] = None
        self._scheduled: bool = False

    @property
    def triggered(self) -> bool:
        """Whether the event has been succeeded or failed."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def ok(self) -> bool:
        """Whether the event triggered successfully (no exception)."""
        return self._value is not _PENDING and self._exception is None

    @property
    def exception(self) -> typing.Optional[BaseException]:
        """The exception the event failed with (``None`` otherwise).

        A lock request refused by wait-die, for instance, fails with
        :class:`~repro.errors.DeadlockAbort`.
        """
        return self._exception

    @property
    def value(self):
        """The value the event succeeded with.

        Raises:
            SimulationError: If the event has not triggered yet.
        """
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise SimulationError("event value read before trigger")
        return self._value

    def succeed(self, value=None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError("event succeeded twice")
        self._value = value
        if not self._scheduled:
            self._scheduled = True
            self.sim.schedule_now(self._run_callbacks)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, raised in each waiter."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError("event failed after trigger")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._exception = exception
        self._value = None
        if not self._scheduled:
            self._scheduled = True
            self.sim.schedule_now(self._run_callbacks)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def add_callback(
        self, callback: typing.Callable[["Event"], None]
    ) -> None:
        """Register ``callback(event)``; runs now if already triggered."""
        if (
            self._scheduled
            and not self.callbacks
            and (self._value is not _PENDING or self._exception is not None)
        ):
            # Already dispatched: schedule the late-comer at the current time
            # so ordering stays deterministic.
            self.sim.schedule_now(callback, self)
        else:
            self.callbacks.append(callback)


def after_trigger(sim: "Simulator", callback, *args) -> None:
    """Run ``callback(*args)`` where a waiter added to an event triggered
    this instant runs: after the event's own dispatch, one callback later.
    A wait for something already there (a queued reply, a free executor)
    costs that when it is an event: two scheduled callbacks."""
    Event(sim).succeed()
    sim.schedule_now(callback, *args)


class Machine(Event):
    """A control-plane activity run as explicit state and callbacks.

    Subclasses implement ``_start`` and keep their phase in fields; every
    later step is a callback on an event, a timer or a message.  Each
    lifecycle step is one scheduled callback, at fixed points that the
    pinned event counts and tie order depend on: construction schedules
    ``_start``; the machine is the event of its own end (a subclass ends
    it with :meth:`succeed`); :meth:`kill` schedules one :meth:`_stop`,
    which runs :meth:`_on_stop` and fails the machine.  Callbacks already
    due before the stop still step the machine (a kill lands one step
    late); a step reached after it finds the machine :attr:`triggered`
    and returns.
    """

    __slots__ = ("_stopping",)

    def __init__(self, sim: "Simulator"):
        super().__init__(sim)
        self._stopping = False
        sim.schedule_now(self._start)

    def kill(self) -> None:
        """Stop the machine one scheduled step from now (a no-op once it
        has ended or a stop is already on its way)."""
        if self._stopping or self.triggered:
            return
        self._stopping = True
        self.sim.schedule_now(self._stop)

    def _stop(self) -> None:
        if self.triggered:
            return  # ended on its own before the stop came round
        self._on_stop()
        self.fail(SimulationError(f"{type(self).__name__} killed"))

    def _on_stop(self) -> None:
        """Teardown a kill runs before the machine fails (default: none)."""


class Ticker(Machine):
    """A machine that calls ``tick()`` every ``interval``: the first time
    after ``first``, or in its start callback when ``first`` is ``None``."""

    __slots__ = ("interval", "tick", "first")

    def __init__(self, sim: "Simulator", interval: float, tick,
                 first: typing.Optional[float] = None):
        self.interval = interval
        self.tick = tick
        self.first = first
        super().__init__(sim)

    def _start(self) -> None:
        if self.first is None:
            self._beat()
        else:
            self.sim.schedule(self.first, self._beat)

    def _beat(self) -> None:
        if not self.triggered:
            self.tick()
            self.sim.schedule(self.interval, self._beat)
