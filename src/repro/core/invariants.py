"""Runtime checks for the paper's Section 4.4 properties.

These are executable versions of the correctness properties the paper
states for the 3V algorithm.  The invariant checker can be called at any
instant of a simulation (tests sprinkle it densely; benchmarks sample it),
and raises :class:`~repro.errors.InvariantViolation` with a precise
description when a property fails.

Checked properties:

1. While no advancement runs: exactly the steady-state version layout —
   at most two versions per item, identical ``vr`` everywhere, identical
   ``vu`` everywhere.
2. While an advancement runs: at most three versions per item; two nodes
   differing on ``vu`` agree on ``vr`` and vice versa.
3. Always: ``vr < vu <= vr + 2`` on every node.
"""

from __future__ import annotations

import typing

from repro.errors import InvariantViolation
from repro.sim.events import Ticker

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import ThreeVSystem


def check_version_bounds(system: "ThreeVSystem") -> None:
    """Property 3: ``vr < vu <= vr + 2`` on every node."""
    for node in system.nodes.values():
        if not (node.vr < node.vu <= node.vr + 2):
            raise InvariantViolation(
                f"node {node.node_id}: version bound violated "
                f"(vr={node.vr}, vu={node.vu})"
            )


def check_version_counts(system: "ThreeVSystem") -> None:
    """Properties 1a / 2a: never more than three live versions per item
    (and never more than two outside advancement)."""
    limit = 3 if system.coordinator.running else 2
    for node in system.nodes.values():
        for key in node.store.keys():
            versions = node.store.versions(key)
            if len(versions) > limit:
                raise InvariantViolation(
                    f"node {node.node_id}: item {key!r} has "
                    f"{len(versions)} live versions {versions} "
                    f"(limit {limit}, advancement "
                    f"{'running' if system.coordinator.running else 'idle'})"
                )
        if node.store.max_live_versions > 3:
            raise InvariantViolation(
                f"node {node.node_id}: version high-water mark "
                f"{node.store.max_live_versions} exceeds 3"
            )


def check_version_agreement(system: "ThreeVSystem") -> None:
    """Properties 1b / 1c / 2b: version-number agreement across nodes."""
    nodes = list(system.nodes.values())
    if not system.coordinator.running:
        read_versions = {node.vr for node in nodes}
        update_versions = {node.vu for node in nodes}
        if len(read_versions) > 1:
            raise InvariantViolation(
                f"read versions differ outside advancement: "
                f"{ {n.node_id: n.vr for n in nodes} }"
            )
        if len(update_versions) > 1:
            raise InvariantViolation(
                f"update versions differ outside advancement: "
                f"{ {n.node_id: n.vu for n in nodes} }"
            )
        return
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if a.vu != b.vu and a.vr != b.vr:
                raise InvariantViolation(
                    f"nodes {a.node_id}/{b.node_id} differ on both vu "
                    f"({a.vu} vs {b.vu}) and vr ({a.vr} vs {b.vr})"
                )


def check_all(system: "ThreeVSystem") -> None:
    """Run every instantaneous invariant check."""
    check_version_bounds(system)
    check_version_counts(system)
    check_version_agreement(system)


class InvariantMonitor(Ticker):
    """A state machine that runs :func:`check_all` every ``every``.

    Attach one in tests and long benchmarks to turn a silent protocol bug
    into an immediate, located failure.
    """

    def __init__(self, system: "ThreeVSystem", every: float = 0.25):
        self.system = system
        self.checks_run = 0
        super().__init__(system.sim, every, self._check, first=every)

    def _check(self) -> None:
        check_all(self.system)
        self.checks_run += 1

    def stop(self) -> None:
        self.kill()
