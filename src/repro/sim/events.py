"""Events for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on.  Events
follow a small subset of the SimPy protocol: an event is created untriggered,
is eventually *succeeded* (with an optional value) or *failed* (with an
exception), and then runs its callbacks exactly once.  Waiting on an already
triggered event resumes the waiter immediately (at the current simulation
time, in deterministic FIFO order).

All event classes declare ``__slots__``: events are the single most
frequently allocated object in a simulation (every message hand-off, timer,
and process resume creates at least one), and slotted instances both
allocate faster and make the attribute loads in the trigger path cheaper.
"""

from __future__ import annotations

import typing

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator

__all__ = ["Event", "Timeout", "Condition", "AllOf", "AnyOf"]

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

        Lets a waiter that caught an exception at its ``yield`` tell
        whether it came from the awaited event's failure (instance
        identity) or was thrown into the waiter itself (e.g. its own
        ``kill()``).
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

    def _schedule(self) -> None:
        """Queue callback execution at the current simulation time."""
        if not self._scheduled:
            self._scheduled = True
            self.sim.schedule_now(self._run_callbacks)

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


class Timeout(Event):
    """An event that triggers automatically after a simulated delay."""

    __slots__ = ("_delay",)

    def __init__(self, sim: "Simulator", delay: float, value=None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self._delay = delay
        sim.schedule(delay, self._fire, value)

    def _fire(self, value) -> None:
        self._value = value
        self._scheduled = True
        self._run_callbacks()


class Condition(Event):
    """Base for composite events built from several child events."""

    __slots__ = ("_events", "_pending")

    def __init__(self, sim: "Simulator", events: typing.Sequence["Event"]):
        super().__init__(sim)
        self._events = list(events)
        self._pending = len(self._events)
        if not self._events:
            self.succeed([])
            return
        for event in self._events:
            event.add_callback(self._on_child)

    def _on_child(self, event: "Event") -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(Condition):
    """Triggers when every child event has triggered.

    Succeeds with the list of child values (in construction order); fails as
    soon as any child fails.
    """

    __slots__ = ()

    def _on_child(self, event: "Event") -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([child.value for child in self._events])


class AnyOf(Condition):
    """Triggers as soon as any child event triggers.

    Succeeds with the first triggered child event itself, so the waiter can
    inspect which one fired.
    """

    __slots__ = ()

    def _on_child(self, event: "Event") -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._exception)
            return
        self.succeed(event)
