"""The "No Coordination" baseline (Section 1).

"Global transactions can run without global synchronization between nodes.
This way, there is no performance loss due to coordination, but correctness
is sacrificed" — every subtransaction reads and writes the single live copy
of the data the moment it executes, so a query running concurrently with a
multi-node update can observe some of its writes and miss others (the
patient who "sees only partial charges from procedures performed during a
single visit").

The implementation is the :class:`~repro.runtime.plugin.ProtocolPlugin`
defaults: one version (number 0), reads and writes hit it directly.  The
anomaly detector in :mod:`repro.analysis.rolling` quantifies the
resulting fractured reads for experiment C4.
"""

from __future__ import annotations

from repro.runtime.node import ProtocolNode
from repro.runtime.plugin import ProtocolPlugin
from repro.runtime.registry import PROTOCOLS
from repro.runtime.system import System

#: Single-version node; the runtime node running the no-protocol defaults.
NoCoordNode = ProtocolNode


class NoCoordPlugin(ProtocolPlugin):
    """The runtime defaults *are* the no-coordination protocol."""


class NoCoordSystem(System):
    """A cluster with no global concurrency control at all."""

    plugin_class = NoCoordPlugin


def _build_nocoord(node_ids, *, seed, latency, node_config,
                   advancement_period, safety_delay, poll_interval,
                   allow_noncommuting, faults=None, batch_delivery=False,
                   history=None, placement=None):
    return NoCoordSystem(
        node_ids, seed=seed, latency=latency, node_config=node_config,
        faults=faults, batch_delivery=batch_delivery,
        history=history, placement=placement,
    )


PROTOCOLS.register(
    "nocoord", _build_nocoord, order=1,
    description="no global coordination at all (fast but fractured reads)",
)
