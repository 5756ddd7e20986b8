"""Deterministic discrete-event simulation kernel.

This subpackage is a small, self-contained simulation framework in the style
of SimPy: a :class:`~repro.sim.simulator.Simulator` owns the virtual clock,
generator-based :class:`~repro.sim.process.Process` objects model concurrent
activities, and :class:`~repro.sim.resources.Resource`/:class:`~repro.sim.resources.Store`
model contention and mailboxes.  All randomness flows through named
:class:`~repro.sim.distributions.RngRegistry` streams for reproducibility.
"""

from repro.sim.distributions import (
    Constant,
    Distribution,
    Exponential,
    LogNormal,
    RngRegistry,
    Uniform,
)
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.resources import Resource, Store
from repro.sim.simulator import Simulator

__all__ = [
    "AllOf",
    "AnyOf",
    "Constant",
    "Distribution",
    "Event",
    "Exponential",
    "LogNormal",
    "Process",
    "Resource",
    "RngRegistry",
    "Simulator",
    "Store",
    "Timeout",
    "Uniform",
]
