"""Version advancement and garbage collection (Section 4.3).

The coordinator advances versions in four phases, all asynchronous with
user transactions:

1. **Switching to a new update version** — broadcast ``start-advancement``
   with ``vu_new = vu_old + 1``; every node advances ``vu`` and acks.
2. **Updates phase-out** — poll the request/completion counters of
   ``vu_old`` until they match for every node pair.
3. **Switching to a new read version** — broadcast ``read-advance`` with
   ``vr_new = vr_old + 1``; every node advances ``vr`` and acks.
4. **Garbage collection** — poll the counters of ``vr_old`` until the old
   queries drain, then broadcast ``garbage-collect``.

Quiescence detection
--------------------

The paper's counters are read "in an asynchronous manner", citing the
stable-property detection literature [Chandy-Lamport 85, Helary et al. 87,
Chandy-Misra 86].  A single interleaved read of ``R`` and ``C`` is *not*
sound: between reading ``R`` at one node and ``C`` at another, a new
request can be issued and completed, making the counters match while an
older subtransaction is still in flight.  The sound rule (Mattern's
four-counter / two-wave method) is implemented by
:class:`TwoWaveDetector`: read **all completion counters first**, then all
request counters; if ``C(wave 1) == R(wave 2)`` per pair, every request
had completed by the end of wave 1 — and because no new root
subtransaction can join an old version once Phase 1 acks are in,
quiescence is a stable property and stays true.

The production two-wave detector reads *aggregate totals* — one scalar
per node per wave ("CT" then "RT") instead of a full per-peer row — and
compares cluster-wide sums (:func:`repro.storage.counters.aggregate_quiescent`),
making each poll O(nodes) instead of O(nodes²).  The ordering argument
carries over unchanged: with completions read first, ``C_pq <= R_pq``
per pair, so the scalar sums match iff every pair matches.

The unsound alternatives are provided for the C7 ablation:
:class:`InterleavedDetector` (single combined wave) and
:class:`ActivePollDetector` (the naive "is any transaction running on v?"
check the paper warns about in Section 2.2, blind to in-transit children).
"""

from __future__ import annotations

import typing

from repro.errors import AdvancementInProgress, ProtocolError
from repro.net.message import MessageKind
from repro.net.network import Network
from repro.sim.events import Event
from repro.sim.simulator import Simulator
from repro.storage.counters import aggregate_quiescent, quiescent
from repro.txn.history import AdvancementRecord, History

COORDINATOR_ID = "coordinator"


class QuiescenceDetector:
    """Strategy deciding when all transactions of a version have finished."""

    name = "abstract"

    def __init__(self, coordinator: "AdvancementCoordinator"):
        self.coordinator = coordinator

    def check(self, version: int):  # generator
        """Yield simulation events; return ``True`` when quiescent."""
        raise NotImplementedError  # pragma: no cover


class TwoWaveDetector(QuiescenceDetector):
    """Sound detector: completions wave strictly before requests wave.

    Production variant: each wave reads one *aggregate total* per node
    ("CT" then "RT") and compares cluster-wide sums — O(nodes) per poll
    (see the module docstring for why that equals the per-pair scan).
    """

    name = "two-wave"

    def check(self, version: int):
        completions = yield from self.coordinator.gather_counters(version, "CT")
        requests = yield from self.coordinator.gather_counters(version, "RT")
        return aggregate_quiescent(requests, completions)


class InterleavedDetector(QuiescenceDetector):
    """UNSOUND (ablation): reads R and C in a single combined wave, so a
    request can slip between the two reads and hide an in-flight
    subtransaction.  Kept to demonstrate why the wave order matters."""

    name = "interleaved"

    def check(self, version: int):
        requests = yield from self.coordinator.gather_counters(version, "R")
        completions = yield from self.coordinator.gather_counters(version, "C")
        return quiescent(requests, completions)


class ActivePollDetector(QuiescenceDetector):
    """UNSOUND (ablation): Section 2.2's strawman — ask every node whether
    any subtransaction of the version is currently running.  "A
    subtransaction running on version 1 on node p might have sent a child
    subtransaction to node q and committed on node p; while the child is
    in transit, no server may be running any transactions against
    version 1" — this detector declares quiescence in exactly that window.
    """

    name = "active-poll"

    def check(self, version: int):
        active = yield from self.coordinator.gather_counters(version, "ACTIVE")
        return all(count == 0 for row in active.values() for count in row.values())


DETECTORS = {
    TwoWaveDetector.name: TwoWaveDetector,
    InterleavedDetector.name: InterleavedDetector,
    ActivePollDetector.name: ActivePollDetector,
}


class AdvancementCoordinator:
    """Runs the four-phase advancement protocol over the network.

    Args:
        sim: Owning simulator.
        network: Message transport (the coordinator registers its own
            endpoint).
        node_ids: All database nodes.
        history: Where advancement phase timestamps are recorded.
        poll_interval: Delay between quiescence polls in phases 2 and 4.
        detector: Name of the quiescence detector (see :data:`DETECTORS`).
        lease_interval: When > 0, the coordinator broadcasts lease
            heartbeats (half this interval apart) so node-side standby
            monitors can take the role over deterministically when the
            lease lapses; 0 (the default) sends no heartbeat traffic at
            all, keeping default runs event-for-event identical.

    The paper assumes a distributed mutual exclusion mechanism around
    advancement.  The implemented scheme: a single *incarnation* of the
    coordinator role holds the lease at any time, every message it sends
    carries its monotone **advancement epoch**, and both the nodes and the
    coordinator fence anything stamped with an older epoch — so a dead
    incarnation's stragglers can never drive (or confuse) an advancement
    after a restart or a standby takeover.  The role's control record
    (vr, vu, epoch, in-flight wave) is durable and survives a crash as it
    was; a successor takes it over and re-runs the in-flight wave from
    the top, which is safe because every phase is idempotent: version
    bumps no-op at or below a node's current version and the RT/CT
    quiescence aggregates are monotone, so re-gathering never
    double-counts.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_ids: typing.Sequence[str],
        history: History,
        poll_interval: float = 1.0,
        detector: str = TwoWaveDetector.name,
        lease_interval: float = 0.0,
    ):
        self.sim = sim
        self.network = network
        self.node_ids = list(node_ids)
        self.history = history
        self.poll_interval = poll_interval
        try:
            self.detector: QuiescenceDetector = DETECTORS[detector](self)
        except KeyError:
            raise ProtocolError(f"unknown quiescence detector: {detector!r}")
        if lease_interval < 0:
            raise ProtocolError(
                f"lease_interval must be >= 0: {lease_interval}"
            )
        self.vr = 0
        self.vu = 1
        self.running = False
        self.completed_runs = 0
        #: Monotone incarnation counter stamped on every message; bumped
        #: by each recovery/takeover so stale traffic is fenceable.
        self.epoch = 1
        self.down = False
        self.crashes = 0
        self.recoveries = 0
        self.takeovers = 0
        self.lease_interval = lease_interval
        #: Node currently hosting the role after a takeover (``None``
        #: while the original dedicated endpoint holds it).
        self.host: typing.Optional[str] = None
        self.endpoint = COORDINATOR_ID
        #: Target update version of the wave in flight (``None`` between
        #: waves) — what a successor incarnation re-runs to resume.
        self._in_flight: typing.Optional[int] = None
        self._mailbox = network.register(COORDINATOR_ID)
        #: Drain batched mailbox wakes synchronously (one resume per
        #: batch of same-tick replies instead of one per reply).
        self._drain = network.batch_delivery
        self._process = None
        self._heartbeat_process = None
        if lease_interval > 0:
            self._heartbeat_process = sim.process(
                self._heartbeat(), name="coordinator-heartbeat"
            )

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def advance(self) -> Event:
        """Start one advancement; returns the process (an event).

        Raises:
            AdvancementInProgress: If an advancement is already running
                (the one-wave-at-a-time rule of the mutual exclusion
                scheme; a recovered incarnation resuming its in-flight
                wave counts).
            ProtocolError: If the coordinator is currently down.
        """
        if self.down:
            raise ProtocolError(
                "the advancement coordinator is down (crashed and not yet "
                "recovered or failed over)"
            )
        if self.running:
            raise AdvancementInProgress(
                f"advancement to version {self.vu + 1} already running"
            )
        self.running = True
        self._in_flight = self.vu + 1
        self._process = self.sim.process(
            self._advance(self.vu + 1), name="advancement"
        )
        return self._process

    # ------------------------------------------------------------------
    # Crash / recovery / failover (the coordinator as a fault target)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop this incarnation of the coordinator role.

        The in-flight advancement process (if any) is killed, its
        stranded mailbox getter is abandoned (a dead getter would swallow
        the next reply), and the mailbox freezes so stragglers queue
        durably.  The control record survives for the next
        incarnation — :meth:`recover` in place, or :meth:`failover` to a
        standby.
        """
        if self.down:
            raise ProtocolError("the coordinator is already down")
        self.down = True
        self.crashes += 1
        self._halt_incarnation()
        self._mailbox.freeze()

    def recover(self) -> None:
        """Restart the role in place as a new incarnation.

        Bumps the epoch (fencing every message the dead incarnation left
        in flight), thaws the mailbox, and — if a wave was in flight —
        re-runs it from the top.  A no-op when a standby already took the
        role over (the scheduled recovery of a superseded incarnation must
        not resurrect it).
        """
        if not self.down:
            return
        self.down = False
        self.recoveries += 1
        self._mailbox.thaw()
        self._resume()

    def failover(self, node_id: str) -> None:
        """Deterministic takeover: ``node_id``'s standby assumes the role.

        The lease model is fail-stop: an incarnation that lost its lease
        stops acting, so any still-live process of the old incarnation is
        halted and its endpoint frozen (stale replies addressed to it pile
        up unread; anything re-routed to the new endpoint is fenced by
        epoch).  The new incarnation registers ``coordinator@<node_id>``
        and resumes exactly like an in-place recovery.
        """
        self._halt_incarnation()
        if not self._mailbox.frozen:
            self._mailbox.freeze()
        self.down = False
        self.takeovers += 1
        self.host = node_id
        self.endpoint = f"{COORDINATOR_ID}@{node_id}"
        self._mailbox = self.network.register(self.endpoint)
        self._mailbox.thaw()
        self._resume()

    def stop_heartbeats(self) -> None:
        """Kill the lease heartbeat process (lets the system drain)."""
        if (self._heartbeat_process is not None
                and self._heartbeat_process.is_alive):
            self._heartbeat_process.kill()
        self._heartbeat_process = None

    def _halt_incarnation(self) -> None:
        """Stop every live process of the current incarnation."""
        if self._process is not None and self._process.is_alive:
            self._process.kill()
        self._process = None
        self.stop_heartbeats()
        self._mailbox.abandon_getters()
        self.running = False

    def _resume(self) -> None:
        """Start a new incarnation and restart the in-flight wave."""
        self.epoch += 1
        if self.lease_interval > 0:
            self._heartbeat_process = self.sim.process(
                self._heartbeat(), name="coordinator-heartbeat"
            )
        if self._in_flight is not None:
            # Re-run the interrupted wave from the top; completed phases
            # degenerate to no-ops (see the class docstring).
            self.running = True
            self._process = self.sim.process(
                self._advance(self._in_flight), name="advancement"
            )

    def _heartbeat(self):
        """Broadcast the lease heartbeat (failover mode only)."""
        while True:
            self.network.broadcast_to(
                self.endpoint, self.node_ids,
                MessageKind.COORDINATOR_HEARTBEAT, (self.epoch,),
            )
            yield self.sim.timeout(self.lease_interval / 2.0)

    # ------------------------------------------------------------------
    # The four phases
    # ------------------------------------------------------------------

    def _advance(self, vu_new: int):
        epoch = self.epoch
        vu_old, vr_new, vr_old = vu_new - 1, vu_new - 1, vu_new - 2
        record = AdvancementRecord(
            new_update_version=vu_new, started=self.sim.now
        )
        self.history.advancements.append(record)
        try:
            # Phase 1: switch every node to the new update version.  A
            # resumed wave whose predecessor already committed the vu bump
            # skips straight to quiescence (phase1_done stays unset on the
            # resume record, so staleness keeps the true close time).
            if self.vu < vu_new:
                self._broadcast(MessageKind.START_ADVANCEMENT, vu_new)
                yield from self._collect_acks(
                    MessageKind.START_ADVANCEMENT_ACK, vu_new
                )
                self.vu = vu_new
                record.phase1_done = self.sim.now

            # Phase 2: wait for vu_old to quiesce (always re-checked on a
            # resume — the aggregates are monotone, so this only waits).
            yield from self._await_quiescence(vu_old, record)
            record.phase2_done = self.sim.now

            # Phase 3: make vu_old (= vr_new) readable.
            if self.vr < vr_new:
                self._broadcast(MessageKind.READ_ADVANCE, vr_new)
                yield from self._collect_acks(
                    MessageKind.READ_ADVANCE_ACK, vr_new
                )
                self.vr = vr_new
                record.phase3_done = self.sim.now

            # Phase 4: wait for vr_old queries to drain, then collect
            # (node-side GC is idempotent, so a resume redoes it safely).
            yield from self._await_quiescence(vr_old, record)
            self._broadcast(MessageKind.GARBAGE_COLLECT, vr_new)
            yield from self._collect_acks(
                MessageKind.GARBAGE_COLLECT_ACK, vr_new
            )
            record.gc_done = self.sim.now
            self._in_flight = None
            self.completed_runs += 1
        finally:
            # Kills are delivered one sim step late, so a crashed
            # incarnation's teardown can run after its successor already
            # restarted the wave — the epoch guard keeps it from
            # clobbering the live incarnation's state.
            if self.epoch == epoch:
                self.running = False
                self._process = None

    def _await_quiescence(self, version: int, record: AdvancementRecord):
        while True:
            record.counter_polls += 1
            done = yield from self.detector.check(version)
            if done:
                return
            yield self.sim.timeout(self.poll_interval)

    # ------------------------------------------------------------------
    # Messaging helpers
    # ------------------------------------------------------------------

    def _broadcast(self, kind: str, version: int) -> None:
        """Broadcast a phase request stamped with the current epoch."""
        self.network.broadcast_to(
            self.endpoint, self.node_ids, kind, (self.epoch, version)
        )

    def _stale(self, message) -> bool:
        """Fence a reply stamped by a dead incarnation.

        Replies carry the epoch of the request they answer as their last
        payload element; anything not matching the live epoch is counted
        and dropped (a resumed wave re-requests everything it needs, so
        dropping is always safe).
        """
        if message.payload[-1] != self.epoch:
            self.network.stats.stale_epoch_dropped += 1
            return True
        return False

    def _receive(self):
        """Take the coordinator's next message (batch-drain aware).

        With batched delivery a wave's same-tick replies land in the
        mailbox together; consuming the backlog via ``take_nowait`` skips
        the event + scheduled resume a blocking ``get`` would cost per
        message.
        """
        if self._drain:
            message = self._mailbox.take_nowait()
            if message is not None:
                return message
        message = yield self._mailbox.get()
        return message

    def _collect_acks(self, kind: str, version: int):
        """Wait until every node acked ``(node_id, version, epoch)``."""
        pending = set(self.node_ids)
        while pending:
            message = yield from self._receive()
            if self._stale(message):
                continue
            if message.kind != kind:
                raise ProtocolError(
                    f"coordinator expected {kind!r}, got {message.kind!r}"
                )
            node_id, acked_version, _epoch = message.payload
            if acked_version != version:
                raise ProtocolError(
                    f"stale ack for version {acked_version} during "
                    f"advancement to {version}"
                )
            pending.discard(node_id)

    def gather_counters(self, version: int, which: str):
        """One asynchronous read wave of all nodes' counters.

        Returns:
            ``{node_id: snapshot}``.  The snapshot shape depends on the
            wave kind: a per-peer row dict for "R"/"C"/"ACTIVE", a scalar
            total for "RT"/"CT".
        """
        for node_id in self.node_ids:
            self.network.send(
                self.endpoint, node_id, MessageKind.COUNTER_READ,
                (self.epoch, version, which),
            )
        snapshots: typing.Dict[str, typing.Any] = {}
        while len(snapshots) < len(self.node_ids):
            message = yield from self._receive()
            if self._stale(message):
                continue
            if message.kind != MessageKind.COUNTER_READ_REPLY:
                raise ProtocolError(
                    f"coordinator expected counter reply, got {message.kind!r}"
                )
            node_id, reply_version, reply_which, snapshot, _epoch = (
                message.payload
            )
            if reply_version != version or reply_which != which:
                raise ProtocolError(
                    f"stale counter reply ({reply_version}, {reply_which!r}) "
                    f"during wave ({version}, {which!r})"
                )
            snapshots[node_id] = snapshot
        return snapshots
