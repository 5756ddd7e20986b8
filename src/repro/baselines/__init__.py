"""Baseline systems: the paper's Section 1 alternatives, fully implemented."""

from repro.baselines.manual import (
    MANUAL_COORDINATOR_ID,
    ManualNode,
    ManualVersioningSystem,
)
from repro.baselines.nocoord import NoCoordNode, NoCoordSystem
from repro.baselines.twopc import TwoPCNode, TwoPCSystem

__all__ = [
    "MANUAL_COORDINATOR_ID",
    "ManualNode",
    "ManualVersioningSystem",
    "NoCoordNode",
    "NoCoordSystem",
    "TwoPCNode",
    "TwoPCSystem",
]
