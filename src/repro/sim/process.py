"""Generator-coroutine processes for the simulation kernel.

A process wraps a Python generator.  The generator yields :class:`Event`
instances; the process suspends until the event triggers, then resumes with
the event's value (or the event's exception raised at the yield point).  A
process is itself an :class:`Event` that triggers when the generator returns,
so processes can wait on each other.
"""

from __future__ import annotations

import typing

from repro.errors import ProcessKilled, SimulationError
from repro.sim.events import _PENDING, Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator

__all__ = ["Process"]


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
