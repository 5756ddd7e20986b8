"""The generator-process kernel the callback control plane replaced.

Kept verbatim, for tests only: :class:`Process` (from
``repro/sim/process.py``), :class:`Timeout` and the condition events
:class:`AllOf` / :class:`AnyOf` (from ``repro/sim/events.py``), and
:class:`ProcessKilled` (from ``repro/errors.py``).  A process wraps a
generator that yields :class:`~repro.sim.events.Event` instances; it
suspends until the event triggers, then resumes with the event's value (or
the event's exception raised at the yield point).  A process is itself an
event that triggers when the generator returns.

What uses it: ``GeneratorNode``, the generator-driven node runtime of
``tests/test_runtime_equivalence.py``; the pure-heap scheduler
differential ``tests/test_scheduler_equivalence.py``; the kernel tests of
``tests/test_sim_kernel.py``; and ``tests/test_gc_pause.py``'s check that
a generator keeps no traceback of an exception it caught.

Two helpers stand in for what the callback runtime took out of
``src/``: :func:`request` is the removed ``Resource.request``, and
:func:`sit_out` waits on a plugin hook's ``wait(then)`` the way
``yield from`` waited on the generator the hook used to return.
"""

from __future__ import annotations

import functools
import typing

from repro.errors import SimulationError
from repro.sim.events import _PENDING, Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator


class ProcessKilled(SimulationError):
    """A simulated process was forcibly terminated."""


class Process(Event):
    """A running simulated activity driven by a generator.

    Args:
        sim: The owning simulator.
        generator: A generator yielding :class:`Event` objects.
        name: Optional label used in error messages and tracing.
    """

    __slots__ = ("name", "_generator", "_waiting_on", "_killed")

    def __init__(self, sim: "Simulator", generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: typing.Optional[Event] = None
        self._killed = False
        # Kick off at the current simulation time.
        sim.schedule_now(self._resume, None, None)

    @property
    def is_alive(self) -> bool:
        """Whether the generator has not yet finished."""
        return not self.triggered

    def kill(self) -> None:
        """Forcibly terminate the process.

        The generator receives :class:`ProcessKilled` at its current yield
        point, giving ``finally`` blocks a chance to run.  Killing a finished
        process is a no-op.
        """
        if self.triggered or self._killed:
            return
        self._killed = True
        self.sim.schedule_now(self._resume, None, ProcessKilled(self.name))

    def _on_event(self, event: Event) -> None:
        if event is not self._waiting_on:
            return  # Stale callback from an event we gave up on (kill()).
        self._waiting_on = None
        if event._exception is None:
            self._resume(event._value, None)
        else:
            self._resume(None, event._exception)

    def _resume(self, value, exception: typing.Optional[BaseException]) -> None:
        if self._value is not _PENDING or self._exception is not None:
            return  # Already finished (e.g. killed while a resume was queued).
        try:
            if exception is not None:
                target = self._generator.throw(exception)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            if exception is not None:
                exception.__traceback__ = None
            self.succeed(getattr(stop, "value", None))
            return
        except ProcessKilled as killed:
            killed.__traceback__ = None
            self.fail(killed)
            return
        except BaseException as exc:
            # Crash loudly: an unhandled error inside a simulated process is
            # a bug in the model, not a simulation outcome.
            self.fail(exc)
            raise
        if exception is not None:
            # The generator caught it.  The traceback throw() grew points at
            # the generator's own frame, whose locals reach the failed event
            # that holds this exception: a reference cycle per handled
            # failure unless it is dropped here.
            exception.__traceback__ = None
        if not isinstance(target, Event):
            self._generator.close()
            error = SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}, "
                "expected an Event"
            )
            self.fail(error)
            raise error
        self._waiting_on = target
        target.add_callback(self._on_event)


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


def _fire(event: Event, value=None) -> None:
    """Trigger ``event`` and run its callbacks inline (as ``Timeout`` does)."""
    event._value = value
    event._scheduled = True
    event._run_callbacks()


def request(resource) -> Event:
    """The removed ``Resource.request``: an event that triggers when one
    unit of ``resource`` is granted — on the spot, or by a later
    ``release`` in the callback that release schedules."""
    event = Event(resource.sim)
    if resource.acquire(_fire, event):
        event.succeed()
    return event


def sit_out(sim: "Simulator", wait):
    """Generator: ``yield from sit_out(sim, wait)`` waits until the hook's
    ``wait(then)`` calls ``then``, with no scheduled callback of its own,
    as ``yield from`` did on the generator a hook used to return."""
    event = Event(sim)
    wait(functools.partial(_fire, event))
    if not event.triggered:
        yield event
