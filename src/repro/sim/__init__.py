"""Deterministic discrete-event simulation kernel.

This subpackage is a small, self-contained simulation framework in the style
of SimPy: a :class:`~repro.sim.simulator.Simulator` owns the virtual clock and
runs scheduled callbacks, :class:`~repro.sim.events.Event` objects let
callbacks wait on one another, :class:`~repro.sim.events.Machine` runs a
control-plane activity as explicit state, and
:class:`~repro.sim.resources.Resource`/:class:`~repro.sim.resources.Store`
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
from repro.sim.events import Event, Machine
from repro.sim.resources import Resource, Store
from repro.sim.simulator import Simulator

__all__ = [
    "Constant",
    "Distribution",
    "Event",
    "Exponential",
    "LogNormal",
    "Machine",
    "Resource",
    "RngRegistry",
    "Simulator",
    "Store",
    "Uniform",
]
