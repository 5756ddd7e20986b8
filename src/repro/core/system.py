"""`ThreeVSystem` — the façade tying nodes, network, and coordinator together.

This is the main entry point of the library::

    from repro import ThreeVSystem, TransactionSpec, SubtxnSpec, WriteOp, Increment

    system = ThreeVSystem(["radiology", "pediatric"], seed=1)
    system.load("radiology", "balance:alice", 0.0)
    system.load("pediatric", "balance:alice", 0.0)
    visit = TransactionSpec(
        name="visit-1",
        root=SubtxnSpec(
            node="radiology",
            ops=[WriteOp("balance:alice", Increment(120.0))],
            children=[SubtxnSpec(node="pediatric",
                                 ops=[WriteOp("balance:alice", Increment(80.0))])],
        ),
    )
    system.submit(visit)
    system.advance_versions()
    system.run_until_quiet()

Everything is deterministic for a given seed.  The node mechanism and the
``load`` / ``submit`` / ``run*`` surface come from
:class:`repro.runtime.System`; this subclass adds the 3V-specific pieces —
the advancement coordinator, the optional advancement policy, and NC3V
submission checks.
"""

from __future__ import annotations

import functools
import typing

from repro.core.advancement import COORDINATOR_ID, AdvancementCoordinator
from repro.core.node import NodeConfig, ThreeVPlugin
from repro.core.policy import AdvancementPolicy
from repro.errors import ProtocolError
from repro.net.latency import LatencyModel
from repro.runtime.registry import PROTOCOLS
from repro.runtime.system import System
from repro.sim.events import Event, Ticker
from repro.txn.spec import TransactionSpec


class ThreeVSystem(System):
    """A distributed database cluster running the 3V / NC3V protocols.

    Args:
        node_ids: Names of the database nodes.
        seed: Master seed for all randomness (latencies, service times).
        latency: Network latency model (default: constant 1.0).
        node_config: Shared per-node tunables.
        poll_interval: Coordinator quiescence poll interval.
        detector: Quiescence detector name (``"two-wave"`` is the sound
            one; ``"interleaved"`` / ``"active-poll"`` are ablations).
        allow_noncommuting: Enable the NC3V extension (commute locks for
            well-behaved updates, NR/NW + 2PC for non-commuting ones).
        policy: Optional automatic advancement trigger.
        lease_interval: When > 0, the coordinator heartbeats its lease and
            every node runs a standby monitor; if the lease lapses, the
            lowest-id live node deterministically takes the role over
            (epoch fencing keeps a late-recovering incarnation harmless).
            0 (the default) adds no monitors and no messages.
    """

    #: The advancement coordinator is a crashable fault target alongside
    #: the database nodes (``CrashEvent(node="coordinator")``).
    extra_crash_targets = (COORDINATOR_ID,)

    def __init__(
        self,
        node_ids: typing.Sequence[str],
        seed: int = 0,
        latency: typing.Optional[LatencyModel] = None,
        node_config: typing.Optional[NodeConfig] = None,
        poll_interval: float = 1.0,
        detector: str = "two-wave",
        allow_noncommuting: bool = False,
        batch_delivery: bool = False,
        policy: typing.Optional[AdvancementPolicy] = None,
        faults=None,
        history=None,
        placement=None,
        lease_interval: float = 0.0,
    ):
        super().__init__(
            node_ids, seed=seed, latency=latency, node_config=node_config,
            batch_delivery=batch_delivery,
            plugin=ThreeVPlugin(allow_noncommuting=allow_noncommuting),
            faults=faults, history=history, placement=placement,
        )
        self.coordinator = AdvancementCoordinator(
            self.sim, self.network, list(node_ids), self.history,
            poll_interval=poll_interval, detector=detector,
            lease_interval=lease_interval,
        )
        self.counted.append(self.coordinator)
        self.policy = policy
        self._policy_driver = None
        # Standby monitors: one per node, staggered patience by rank so
        # the lowest-id live node always wins the takeover race.
        beat = lease_interval / 2.0
        self._monitors: typing.List[Ticker] = [
            Ticker(self.sim, beat, functools.partial(
                self._standby_check, node_id,
                2.0 * lease_interval + rank * lease_interval), first=beat)
            for rank, node_id in enumerate(sorted(node_ids))
        ] if lease_interval > 0 else []
        if policy is not None:
            policy.bind(self)
            self._policy_driver = policy.start(
                self.sim, self.coordinator, self.history
            )

    # ------------------------------------------------------------------
    # Inspection and submission
    # ------------------------------------------------------------------

    def current_read_version(self, node) -> int:
        return node.vr

    def submit(self, spec: TransactionSpec) -> None:
        """Submit a transaction now; its root runs at ``spec.root.node``."""
        if not spec.is_well_behaved and not self.plugin.allow_noncommuting:
            raise ProtocolError(
                f"{spec.name!r} is non-commuting; construct the system with "
                "allow_noncommuting=True to run it (NC3V)"
            )
        super().submit(spec)

    # ------------------------------------------------------------------
    # Version advancement
    # ------------------------------------------------------------------

    def advance_versions(self) -> Event:
        """Manually start one version advancement; returns its wave (an
        event that triggers when the wave ends)."""
        return self.coordinator.advance()

    @property
    def read_version(self) -> int:
        return self.coordinator.vr

    @property
    def update_version(self) -> int:
        return self.coordinator.vu

    def stop_policy(self) -> None:
        """Kill every automatic driver (policy, heartbeats, standby
        monitors) so the system can drain."""
        if self._policy_driver is not None:
            self._policy_driver.kill()
            self._policy_driver = None
        for monitor in self._monitors:
            monitor.kill()
        self._monitors = []
        self.coordinator.stop_heartbeats()

    def close(self) -> None:
        # The coordinator and the network hold each other through its
        # mailbox, with the whole history hanging off the coordinator.
        self.coordinator.__dict__.clear()
        super().close()

    # ------------------------------------------------------------------
    # Coordinator fault surface
    # ------------------------------------------------------------------

    def crash(self, node_id: str) -> None:
        # A takeover moves the coordinator role onto a database node, so
        # crashing that node fail-stops the hosted incarnation too.
        super().crash(node_id)
        coordinator = self.coordinator
        if coordinator.host == node_id and not coordinator.down:
            coordinator.crash()

    def _standby_check(self, node_id: str, patience: float) -> None:
        """One beat of ``node_id``'s lease watcher (``lease_interval > 0``
        only).

        Patience is ``2 * lease + rank * lease`` with the rank taken in
        sorted node-id order, so the lowest-id live node's monitor always
        fires first — a deterministic election with no extra messages.
        """
        if node_id in self.down_nodes:
            return
        node = self.nodes[node_id]
        coordinator = self.coordinator
        if coordinator.host == node_id and not coordinator.down:
            # This node hosts the live incarnation; its own silence is
            # not evidence of coordinator death.
            node._coord_seen = self.sim.now
        elif self.sim.now - node._coord_seen > patience:
            coordinator.failover(node_id)
            node._coord_seen = self.sim.now

    def _scheduled_extra_crash(self, event) -> None:
        """Run a planned coordinator crash/recover cycle."""
        if self.coordinator.down:
            return
        self.coordinator.crash()
        self.sim.schedule(event.down_for, self.coordinator.recover)


def _build_3v(node_ids, *, seed, latency, node_config,
              advancement_period, safety_delay, poll_interval,
              allow_noncommuting, faults=None, batch_delivery=False,
              history=None, placement=None):
    from repro.core.policy import PeriodicPolicy

    return ThreeVSystem(
        node_ids, seed=seed, latency=latency, node_config=node_config,
        poll_interval=poll_interval,
        allow_noncommuting=allow_noncommuting,
        policy=PeriodicPolicy(advancement_period), faults=faults,
        batch_delivery=batch_delivery, history=history,
        placement=placement,
    )


PROTOCOLS.register(
    "3v", _build_3v, order=0, strict_audit=True,
    coordinator=COORDINATOR_ID,
    description="the paper's 3V multiversioning protocol (NC3V when "
                "corrections are present)",
)
