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

One advancement is an :class:`AdvancementWave`, a state machine whose
``phase`` field walks Table 1's rows: every reply, counter snapshot and
poll timer is a callback that moves it along.
"""

from __future__ import annotations

import collections
import typing

from repro.errors import AdvancementInProgress, ProtocolError
from repro.net.message import MessageKind
from repro.net.network import Network
from repro.sim.events import Machine, Ticker, after_trigger
from repro.sim.simulator import Simulator
from repro.storage.counters import aggregate_quiescent, quiescent
from repro.txn.history import AdvancementRecord, History

COORDINATOR_ID = "coordinator"


class QuiescenceDetector:
    """Strategy deciding when all transactions of a version have finished.

    One check gathers the counter-read :attr:`waves` one after the other
    (each an asynchronous read of every node) and hands their snapshots,
    in wave order, to :meth:`decide`.
    """

    name = "abstract"
    #: Counter-read wave kinds, in the order they are gathered.
    waves: typing.Tuple[str, ...] = ()

    def decide(self, *snapshots) -> bool:  # pragma: no cover - abstract
        """``True`` when the gathered snapshots prove quiescence."""
        raise NotImplementedError


class TwoWaveDetector(QuiescenceDetector):
    """Sound detector: completions wave strictly before requests wave.

    Production variant: each wave reads one *aggregate total* per node
    ("CT" then "RT") and compares cluster-wide sums — O(nodes) per poll
    (see the module docstring for why that equals the per-pair scan).
    """

    name = "two-wave"
    waves = ("CT", "RT")

    def decide(self, completions, requests) -> bool:
        return aggregate_quiescent(requests, completions)


class InterleavedDetector(QuiescenceDetector):
    """UNSOUND (ablation): reads R and C in a single combined wave, so a
    request can slip between the two reads and hide an in-flight
    subtransaction.  Kept to demonstrate why the wave order matters."""

    name = "interleaved"
    waves = ("R", "C")

    def decide(self, requests, completions) -> bool:
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
    waves = ("ACTIVE",)

    def decide(self, active) -> bool:
        return all(count == 0 for row in active.values() for count in row.values())


DETECTORS = {
    TwoWaveDetector.name: TwoWaveDetector,
    InterleavedDetector.name: InterleavedDetector,
    ActivePollDetector.name: ActivePollDetector,
}

#: The reply every node owes each coordinator request.
_REPLY_TO = {
    MessageKind.START_ADVANCEMENT: MessageKind.START_ADVANCEMENT_ACK,
    MessageKind.READ_ADVANCE: MessageKind.READ_ADVANCE_ACK,
    MessageKind.GARBAGE_COLLECT: MessageKind.GARBAGE_COLLECT_ACK,
    MessageKind.COUNTER_READ: MessageKind.COUNTER_READ_REPLY,
}


class AdvancementWave(Machine):
    """One advancement to update version ``vu_new``, as a state machine.

    ``phase`` is the step of Section 4.2 it is in: ``"switch-update"``
    (phase 1), ``"drain-update"`` (2), ``"switch-read"`` (3),
    ``"drain-read"`` (4), ``"collect"``, then ``"done"``.  A phase is made
    of rounds: a request to every node and one reply from each
    (``replies``) — an ack, or in a drain phase the counter snapshot of
    the detector's wave ``which``.  Replies come through the
    coordinator's inbox (:meth:`_listen`).
    """

    def __init__(self, coordinator: "AdvancementCoordinator", vu_new: int):
        self.coordinator = coordinator
        self.vu_new = vu_new
        self.phase = "start"
        super().__init__(coordinator.sim)

    def _start(self) -> None:
        coordinator = self.coordinator
        self.epoch = coordinator.epoch
        self.record = AdvancementRecord(
            new_update_version=self.vu_new, started=self.sim.now
        )
        coordinator.history.advancements.append(self.record)
        # Phase 1: switch every node to the new update version.  A resumed
        # wave whose predecessor already committed the vu bump skips
        # straight to quiescence (phase1_done stays unset on the resume
        # record, so staleness keeps the true close time).
        if coordinator.vu < self.vu_new:
            self._round("switch-update", MessageKind.START_ADVANCEMENT,
                        self.vu_new)
        else:
            self._await_quiescence("drain-update", self.vu_new - 1)

    def _acked(self) -> None:
        coordinator, now = self.coordinator, self.sim.now
        if self.phase == "switch-update":
            coordinator.vu = self.vu_new
            self.record.phase1_done = now
            # Phase 2: wait for vu_old to quiesce (always re-checked on a
            # resume — the aggregates are monotone, so this only waits).
            self._await_quiescence("drain-update", self.vu_new - 1)
        elif self.phase == "switch-read":
            coordinator.vr = self.vu_new - 1
            self.record.phase3_done = now
            self._await_quiescence("drain-read", self.vu_new - 2)
        else:
            self.record.gc_done = now
            coordinator._in_flight = None
            coordinator.completed_runs += 1
            self.phase = "done"
            self._release_role()
            self.succeed()

    def _quiescent(self) -> None:
        vr_new = self.vu_new - 1
        if self.phase == "drain-update":
            self.record.phase2_done = self.sim.now
            # Phase 3: make vu_old (= vr_new) readable.
            if self.coordinator.vr < vr_new:
                self._round("switch-read", MessageKind.READ_ADVANCE, vr_new)
            else:
                self._await_quiescence("drain-read", self.vu_new - 2)
        else:
            # Phase 4 done: vr_old's queries drained; collect (node-side
            # GC is idempotent, so a resume redoes it safely).
            self._round("collect", MessageKind.GARBAGE_COLLECT, vr_new)

    def _on_stop(self) -> None:
        self._release_role()

    def _release_role(self) -> None:
        # Kills are delivered one sim step late, so a crashed
        # incarnation's teardown can run after its successor already
        # restarted the wave — the epoch guard keeps it from clobbering
        # the live incarnation's state.
        coordinator = self.coordinator
        if coordinator.epoch == self.epoch:
            coordinator.running = False
            coordinator._wave = None

    # -- rounds ----------------------------------------------------------

    def _await_quiescence(self, phase: str, version: int) -> None:
        self.phase, self.drained = phase, version
        self._poll()

    def _poll(self) -> None:
        """One quiescence check: the detector's counter waves, in order."""
        if not self.triggered:
            self.record.counter_polls += 1
            self.snapshots: typing.List[dict] = []
            self._read_counters()

    def _read_counters(self) -> None:
        which = self.coordinator.detector.waves[len(self.snapshots)]
        self._round(self.phase, MessageKind.COUNTER_READ, self.drained, which)

    def _round(self, phase: str, kind: str, version: int,
               which: typing.Optional[str] = None) -> None:
        """Send ``kind`` to every node (stamped with the epoch) and wait
        for all their replies."""
        coordinator = self.coordinator
        self.phase, self.version, self.which = phase, version, which
        self.expect = _REPLY_TO[kind]
        self.replies: typing.Dict[str, typing.Any] = {}
        coordinator.network.broadcast_to(
            coordinator.endpoint, coordinator.node_ids, kind,
            (coordinator.epoch, version) if which is None
            else (coordinator.epoch, version, which),
        )
        self._listen()

    def _replied(self) -> None:
        if self.which is None:
            self._acked()
            return
        detector = self.coordinator.detector
        self.snapshots.append(self.replies)
        if len(self.snapshots) < len(detector.waves):
            self._read_counters()
        elif detector.decide(*self.snapshots):
            self._quiescent()
        else:
            self.sim.schedule(self.coordinator.poll_interval, self._poll)

    def _listen(self) -> None:
        """Feed the coordinator's inbox to the current round: inline with
        batched delivery (a wave's same-tick replies land together), else
        one reply per later callback; an empty inbox makes this wave its
        reader."""
        coordinator = self.coordinator
        inbox = coordinator._inbox
        while inbox:
            if not coordinator._drain:
                after_trigger(self.sim, self._on_message, inbox.popleft())
                return
            if self._take(inbox.popleft()):
                return
        coordinator._reader = self._on_message

    def _on_message(self, message) -> None:
        if not self.triggered and not self._take(message):
            self._listen()

    def _take(self, message) -> bool:
        """Apply one reply; ``True`` once it completed the round.

        The snapshot shape depends on the counter wave: a per-peer row
        dict for "R"/"C"/"ACTIVE", a scalar total for "RT"/"CT".
        """
        coordinator = self.coordinator
        if coordinator._stale(message):
            return False
        if message.kind != self.expect:
            raise ProtocolError(
                f"coordinator expected {self.expect!r}, got {message.kind!r}"
            )
        if self.which is None:
            node_id, version, _epoch = message.payload
            which = snapshot = None
        else:
            node_id, version, which, snapshot, _epoch = message.payload
        if version != self.version or which != self.which:
            raise ProtocolError(
                f"stale {message.kind!r} for ({version}, {which!r}) during "
                f"round ({self.version}, {self.which!r})"
            )
        self.replies[node_id] = snapshot
        if len(self.replies) < len(coordinator.node_ids):
            return False
        self._replied()
        return True


class AdvancementCoordinator:
    """Runs the four-phase advancement protocol over the network.

    Args:
        sim: Owning simulator.
        network: Message transport (the coordinator registers its own
            endpoint).
        node_ids: All database nodes.
        history: Where advancement phase timestamps are recorded.
        poll_interval: Delay between quiescence polls in phases 2 and 4
            (``>= 0``).
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

    #: Run counters: summary field -> attribute (``System.counters``).
    COUNTERS = {
        "advancement_runs": "completed_runs", "coordinator_epoch": "epoch",
        "coordinator_crashes": "crashes", "coordinator_takeovers": "takeovers",
        "coordinator_recoveries": "recoveries",
    }

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
            self.detector: QuiescenceDetector = DETECTORS[detector]()
        except KeyError:
            raise ProtocolError(f"unknown quiescence detector: {detector!r}")
        for name, value in (("poll_interval", poll_interval),
                            ("lease_interval", lease_interval)):
            if value < 0:
                raise ProtocolError(f"{name} must be >= 0: {value}")
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
        #: Target update version of the wave in flight (``None`` between
        #: waves) — what a successor incarnation re-runs to resume.
        self._in_flight: typing.Optional[int] = None
        #: Delivered, unread replies per endpoint the role has held (a
        #: frozen endpoint keeps its own until the role comes back), and
        #: the wave waiting on an empty one.
        self._inboxes: typing.Dict[str, collections.deque] = {}
        self._reader = None
        #: Read batched same-tick replies inline (one wake per batch).
        self._drain = network.batch_delivery
        self._attach(COORDINATOR_ID)
        self._wave: typing.Optional[AdvancementWave] = None
        self._heartbeat: typing.Optional[Ticker] = None
        self._start_heartbeats()

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def advance(self) -> AdvancementWave:
        """Start one advancement; returns the wave (an event that
        triggers when it ends).

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
        self._wave = AdvancementWave(self, self.vu + 1)
        return self._wave

    # ------------------------------------------------------------------
    # Crash / recovery / failover (the coordinator as a fault target)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop this incarnation of the coordinator role.

        The in-flight wave (if any) is stopped and no longer reads the
        inbox, and the mailbox freezes so stragglers queue durably.  The
        control record survives for the next incarnation —
        :meth:`recover` in place, or :meth:`failover` to a standby.
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
        self._attach(self.endpoint)
        self._resume()

    def failover(self, node_id: str) -> None:
        """Deterministic takeover: ``node_id``'s standby assumes the role.

        The lease model is fail-stop: an incarnation that lost its lease
        stops acting, so the old incarnation's wave and heartbeat are
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
        self._attach(f"{COORDINATOR_ID}@{node_id}")
        self._resume()

    def _start_heartbeats(self) -> None:
        """Broadcast the lease every half lease interval (failover mode
        only)."""
        if self.lease_interval > 0:
            self._heartbeat = Ticker(
                self.sim, self.lease_interval / 2.0, self._send_heartbeat)

    def _send_heartbeat(self) -> None:
        self.network.broadcast_to(
            self.endpoint, self.node_ids,
            MessageKind.COORDINATOR_HEARTBEAT, (self.epoch,),
        )

    def stop_heartbeats(self) -> None:
        """Kill the lease heartbeat (lets the system drain)."""
        if self._heartbeat is not None:
            self._heartbeat.kill()
        self._heartbeat = None

    def _halt_incarnation(self) -> None:
        """Stop the current incarnation's wave and heartbeat."""
        if self._wave is not None:
            self._wave.kill()
        self._wave = None
        self.stop_heartbeats()
        self._reader = None
        self.running = False

    def _resume(self) -> None:
        """Start a new incarnation and restart the in-flight wave."""
        self.epoch += 1
        self._start_heartbeats()
        if self._in_flight is not None:
            # Re-run the interrupted wave from the top; completed phases
            # degenerate to no-ops (see the class docstring).
            self.running = True
            self._wave = AdvancementWave(self, self._in_flight)

    # ------------------------------------------------------------------
    # Messaging helpers
    # ------------------------------------------------------------------

    def _attach(self, endpoint: str) -> None:
        """Read ``endpoint``'s mailbox: what it queued while frozen joins
        the endpoint's inbox, in order, and later replies arrive through
        :meth:`_deliver`."""
        self.endpoint = endpoint
        self._mailbox = self.network.register(endpoint)
        self._inbox = self._inboxes.setdefault(endpoint, collections.deque())
        self._inbox.extend(self._mailbox.drain())
        self._mailbox.consume(self._deliver)
        self._mailbox.thaw()

    def _deliver(self, message) -> None:
        """The mailbox's consumer: wake the waiting wave in one scheduled
        callback, or queue the reply until a wave reads it."""
        reader = self._reader
        if reader is None:
            self._inbox.append(message)
        else:
            self._reader = None
            self.sim.schedule_now(reader, message)

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
