"""`System` — the uniform facade every protocol is driven through.

One class ties the simulator, RNG registry, network, history, and nodes
together; protocol subclasses add their coordinator machinery on top but
the driving surface — ``load`` / ``submit`` / ``submit_at`` / ``run`` /
``run_for`` / ``run_until_quiet(limit=)`` / ``stop_policy()`` — is
identical across all of them, so benchmarks, the experiment fleet, and the
analysis package can treat any system interchangeably.
"""

from __future__ import annotations

import typing

from repro.errors import ProtocolError, SimulationError
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.runtime.config import NodeConfig
from repro.runtime.node import ProtocolNode
from repro.runtime.plugin import ProtocolPlugin
from repro.sim.distributions import RngRegistry
from repro.sim.simulator import Simulator
from repro.txn.history import History
from repro.txn.runtime import SubtxnInstance, TxnIndex
from repro.txn.spec import TransactionSpec


class System:
    """A distributed database cluster running one protocol plugin.

    Args:
        node_ids: Names of the database nodes.
        seed: Master seed for all randomness (latencies, service times).
        latency: Network latency model (default: constant 1.0).
        node_config: Shared per-node tunables.
        detail: Record per-operation events in the history (turn off for
            very large benchmark runs).
        fifo_links: Enforce per-link FIFO message delivery.
        batch_delivery: Coalesce same-tick deliveries into one scheduled
            batch event (see :class:`repro.net.network.Network`).
            Changes the scheduled-callback trace, so compare determinism
            digests only between runs with the same setting.
        plugin: Protocol plugin instance (default: ``plugin_class()``).
        faults: Optional :class:`repro.faults.FaultPlan`.  Swaps the
            network for the fault injector (plus the reliable-delivery
            layer when the plan is lossy), enables write-ahead journaling
            on every node so :meth:`crash`/:meth:`recover` work, and
            schedules the plan's crash/recover events.
        history: Pre-built recording surface (e.g. a
            :class:`~repro.txn.history.StreamingHistory` for
            bounded-memory runs).  ``None`` builds the materialized
            default; when supplied, ``detail`` is the history's concern
            and the argument only shapes per-node event capture.
        placement: Optional :class:`repro.placement.PlacementState`.
            Turns on replica-aware routing: read-only submissions are
            re-pointed to readable replicas, write fan-out skips
            unavailable replicas (write-all-available), and recovered
            nodes stay unreadable until the refresh protocol re-admits
            them.  ``None`` (the default, and always the case at
            ``replication_factor=1``) keeps every hot path bit-identical
            to the unreplicated system.
    """

    #: Plugin built when the ``plugin`` argument is omitted.
    plugin_class: typing.Type[ProtocolPlugin] = ProtocolPlugin

    #: Crash targets beyond the database nodes that subclasses accept
    #: (e.g. 3V registers its advancement coordinator).  Crash events
    #: aimed at these are routed to :meth:`_scheduled_extra_crash`.
    extra_crash_targets: typing.Tuple[str, ...] = ()

    def __init__(
        self,
        node_ids: typing.Sequence[str],
        seed: int = 0,
        latency: typing.Optional[LatencyModel] = None,
        node_config: typing.Optional[NodeConfig] = None,
        detail: bool = True,
        fifo_links: bool = False,
        batch_delivery: bool = False,
        plugin: typing.Optional[ProtocolPlugin] = None,
        faults=None,
        history: typing.Optional[History] = None,
        placement=None,
    ):
        if not node_ids:
            raise ProtocolError("a system needs at least one node")
        self.sim = Simulator()
        self.rngs = RngRegistry(seed)
        self.faults = faults
        if faults is not None:
            # Imported lazily: the runtime only depends on repro.faults
            # when a plan is actually supplied.
            from repro.faults import build_network

            self.network = build_network(
                self.sim, faults, rngs=self.rngs, latency=latency,
                fifo_links=fifo_links, batch_delivery=batch_delivery,
            )
        else:
            self.network = Network(
                self.sim, rngs=self.rngs, latency=latency,
                fifo_links=fifo_links, batch_delivery=batch_delivery,
            )
        self.history = history if history is not None else History(detail=detail)
        self.config = node_config if node_config is not None else NodeConfig()
        self.plugin = plugin if plugin is not None else self.plugin_class()
        self.plugin.bind(self)
        #: Node ids currently crashed (mailboxes frozen).
        self.down_nodes: typing.Set[str] = set()
        self.crash_count = 0
        self.recovery_count = 0
        self.placement = placement
        self.nodes: typing.Dict[str, ProtocolNode] = {
            node_id: ProtocolNode(self, node_id) for node_id in node_ids
        }
        if placement is not None:
            placement.bind(self)
        if faults is not None:
            # Validate every fault target at wiring time: a typo'd node id
            # in a crash or partition event would otherwise silently
            # inject no fault at all, and the run would "pass" untested.
            known = set(self.nodes) | set(self.extra_crash_targets)
            for event in faults.crashes:
                if event.node not in known:
                    raise SimulationError(
                        f"fault plan crashes unknown target {event.node!r} "
                        f"(nodes: {sorted(self.nodes)}, extra targets: "
                        f"{sorted(self.extra_crash_targets)})"
                    )
                if event.node in self.nodes:
                    self.sim.schedule(event.at, self._scheduled_crash, event)
                else:
                    self.sim.schedule(
                        event.at, self._scheduled_extra_crash, event
                    )
            for partition in faults.partitions:
                for side in (partition.side_a, partition.side_b):
                    for member in side:
                        if member not in known:
                            raise SimulationError(
                                f"fault plan partitions unknown target "
                                f"{member!r} (nodes: {sorted(self.nodes)}, "
                                f"extra targets: "
                                f"{sorted(self.extra_crash_targets)})"
                            )
        self._submitted = 0

    @property
    def journaling(self) -> bool:
        """Whether nodes keep write-ahead journals (crash-recovery on)."""
        return self.faults is not None

    # ------------------------------------------------------------------
    # Data loading and inspection
    # ------------------------------------------------------------------

    def load(self, node_id: str, key, value, version: int = 0) -> None:
        """Install an initial value on a node before (or during) a run."""
        self.node(node_id).store.load(key, value, version=version)

    def node(self, node_id: str) -> ProtocolNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ProtocolError(f"unknown node: {node_id!r}") from None

    def value_at(self, node_id: str, key, version: typing.Optional[int] = None):
        """Read a value directly from a node's store (for tests/inspection).

        With ``version=None``, reads at the node's current read version —
        what a freshly arriving query would see.
        """
        node = self.node(node_id)
        bound = self.current_read_version(node) if version is None else version
        return node.store.read_max_leq(key, bound, default=None)

    def current_read_version(self, node: ProtocolNode) -> int:
        """What version a query arriving now would use (hook)."""
        return 0

    # ------------------------------------------------------------------
    # Transaction submission
    # ------------------------------------------------------------------

    def submit(self, spec: TransactionSpec) -> None:
        """Submit a transaction now; its root runs at ``spec.root.node``
        (or, for read-only trees under replication, at the first readable
        replica when the spec's node is unavailable — read-one routing)."""
        index = TxnIndex(spec)
        if self.placement is not None and spec.is_read_only:
            self.placement.route_reads(index)
        root_node = index.node_of(index.root_id)
        instance = SubtxnInstance(
            txn=spec, index=index, sid=index.root_id, version=None,
            source_node=root_node,
        )
        self.node(root_node).submit(instance)
        self._submitted += 1

    def submit_at(self, time: float, spec: TransactionSpec) -> None:
        """Schedule a submission at an absolute simulation time."""
        self.sim.schedule(time - self.sim.now, self.submit, spec)

    @property
    def submitted_count(self) -> int:
        return self._submitted

    # ------------------------------------------------------------------
    # Crash / recovery (fail-stop at message granularity)
    # ------------------------------------------------------------------

    def crash(self, node_id: str) -> None:
        """Fail-stop a node.

        Its mailbox freezes — messages keep accumulating in the durable
        queue but the node consumes nothing — and at :meth:`recover` time
        its volatile store/counter state is discarded and rebuilt from the
        write-ahead journal.  In-flight local work runs to completion
        against the journaled state (the model is a local recovery manager
        finishing redo-logged work, not a torn execution); what a crash
        interrupts is all *future* message processing.

        Requires the system to have been built with ``faults=`` (that is
        what turns journaling on).
        """
        node = self.node(node_id)
        if node.journal is None:
            raise ProtocolError(
                f"cannot crash {node_id!r}: system was built without "
                "faults= (write-ahead journaling is off)"
            )
        if node_id in self.down_nodes:
            raise ProtocolError(f"node {node_id!r} is already down")
        self.down_nodes.add(node_id)
        self.crash_count += 1
        node._mailbox.freeze()
        if self.placement is not None:
            self.placement.on_crash(node_id)

    def recover(self, node_id: str) -> None:
        """Bring a crashed node back: replay the journal, re-arm, thaw.

        The journal replay rebuilds the store (and any plugin-attached
        components, e.g. 3V's counter table) to the exact pre-crash state;
        ``plugin.on_recover`` then re-arms protocol state, and thawing the
        mailbox lets the node drain everything that arrived while it was
        down — including retransmitted copies and in-doubt 2PC decisions.
        """
        node = self.node(node_id)
        if node_id not in self.down_nodes:
            raise ProtocolError(f"node {node_id!r} is not down")
        node.journal.replay()
        self.plugin.on_recover(node)
        self.down_nodes.discard(node_id)
        self.recovery_count += 1
        if self.placement is not None:
            # Mark the replica unreadable *before* thawing: reads queued
            # while it was down must hit the refresh gate, not the
            # journal-replayed (but refresh-pending) store.
            self.placement.on_recover(node_id)
        node._mailbox.thaw()

    def _scheduled_crash(self, event) -> None:
        """Run one planned crash/recover cycle (skipped if already down)."""
        if event.node in self.down_nodes:
            return
        self.crash(event.node)
        self.sim.schedule(event.down_for, self.recover, event.node)

    def _scheduled_extra_crash(self, event) -> None:
        """Run a planned crash of a non-node target (subclass hook).

        The base system has no extra targets, so reaching this is a
        programming error — subclasses that declare
        :attr:`extra_crash_targets` must override it.
        """
        raise ProtocolError(
            f"no handler for extra crash target {event.node!r}"
        )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, until: typing.Optional[float] = None) -> None:
        """Advance the simulation (see :meth:`repro.sim.Simulator.run`)."""
        self.sim.run(until=until)

    def run_for(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    def run_until_quiet(self, limit: float = float("inf")) -> None:
        """Run until no scheduled work remains (needs no periodic policy).

        Blocked mailbox reads don't count as scheduled work, so a system
        with no in-flight transactions or advancement drains naturally.
        """
        while self.sim.pending_count:
            next_time = self.sim.peek_time()
            if next_time is not None and next_time > limit:
                raise ProtocolError(
                    f"system not quiet by simulated time {limit!r}"
                )
            self.sim.step()

    def stop_policy(self) -> None:
        """Kill any automatic driver so the system can drain (no-op here)."""

    def close(self) -> None:
        """Take a finished system apart, so that letting go of it frees it.

        System, plugin, nodes and mailboxes hold each other, so a system
        nobody uses any more frees nothing by itself: every record of the
        run (history events, journal entries, stored versions) waits for
        a cyclic collection, which first has to walk all of them.  With
        the nodes and the system emptied no record hangs off a cycle, and
        reference counting reclaims the run as its holders drop it, at a
        fifth of the collection's cost.  The system and its nodes are
        empty shells afterwards; what was taken from them before (the
        history, the network's stats) stays whole.  A subclass that adds
        an object holding the network or the system empties it here too.
        """
        for node in self.nodes.values():
            node.__dict__.clear()
        self.__dict__.clear()
