"""Version-advancement trigger policies.

The paper's "desired solution" automates *when* to advance: "we may want to
advance versions every hour, or once a certain number of update
transactions have accumulated, ... or after a particular update transaction
commits".  A started policy is a :class:`PolicyDriver`, a state machine
that watches the system and calls the coordinator; the protocol itself is
policy-agnostic.
"""

from __future__ import annotations

import typing

from repro.errors import AdvancementInProgress, ProtocolError
from repro.sim.events import Machine
from repro.sim.simulator import Simulator
from repro.txn.history import History, TxnKind

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.advancement import AdvancementCoordinator


class PolicyDriver(Machine):
    """A policy's trigger loop: sleep ``first``, then at every beat run
    the ``waves`` that ``beat()`` asks for one after the other, each to
    its end, and sleep ``interval`` — or end, once ``again`` is false.

    Coordinator faults skip a wave rather than wedge the driver: a down
    (or still resuming) coordinator refuses ``advance()``, and a wave a
    crash kills ends failed; the policy tries again at its next trigger.
    Any other error out of a wave is a protocol bug and propagates.
    """

    def __init__(self, sim: Simulator, coordinator: "AdvancementCoordinator",
                 first: float, interval: float,
                 beat: typing.Callable[[], typing.Tuple[int, bool]]):
        self.coordinator = coordinator
        self.first = first
        self.interval = interval
        self.beat = beat
        super().__init__(sim)

    def _start(self) -> None:
        self.sim.schedule(self.first, self._beat)

    def _beat(self) -> None:
        if self.triggered:
            return
        # The advancements still to run in this beat, and whether another
        # beat follows.
        self.waves_owed, self.again = self.beat()
        self._next_wave()

    def _next_wave(self) -> None:
        while self.waves_owed:
            self.waves_owed -= 1
            try:
                wave = self.coordinator.advance()
            except (AdvancementInProgress, ProtocolError):
                continue
            wave.add_callback(self._wave_over)
            return
        if self.again:
            self.sim.schedule(self.interval, self._beat)
        else:
            self.succeed()

    def _wave_over(self, _wave) -> None:
        if not self.triggered:
            self._next_wave()


class AdvancementPolicy:
    """Base class: start a :class:`PolicyDriver` against a coordinator."""

    #: Set by :class:`~repro.core.system.ThreeVSystem` before ``start`` so
    #: store-inspecting policies (e.g. :class:`DivergencePolicy`) can read
    #: node state.
    system = None

    def bind(self, system) -> None:
        """Give the policy access to the owning system (optional hook)."""
        self.system = system

    def start(self, sim: Simulator, coordinator: "AdvancementCoordinator",
              history: History):
        raise NotImplementedError  # pragma: no cover


class ManualPolicy(AdvancementPolicy):
    """Never advances on its own; the user calls ``advance_versions()``."""

    def start(self, sim, coordinator, history):
        return None


class PeriodicPolicy(AdvancementPolicy):
    """Advance every ``interval`` time units (the "every hour" trigger).

    A new advancement starts only after the previous one fully completes,
    honouring the protocol's single-advancement assumption.
    """

    def __init__(self, interval: float, start_after: typing.Optional[float] = None):
        if interval <= 0:
            raise ValueError(f"advancement interval must be > 0: {interval}")
        self.interval = interval
        self.start_after = interval if start_after is None else start_after

    def start(self, sim, coordinator, history):
        return PolicyDriver(sim, coordinator, self.start_after,
                            self.interval, lambda: (1, True))


class CountPolicy(AdvancementPolicy):
    """Advance once ``threshold`` update transactions committed since the
    last advancement (the "once a certain number of update transactions
    have accumulated" trigger).
    """

    def __init__(self, threshold: int, check_interval: float = 0.5):
        if threshold < 1:
            raise ValueError(f"count threshold must be >= 1: {threshold}")
        self.threshold = threshold
        self.check_interval = check_interval

    def start(self, sim, coordinator, history):
        committed_at_last = 0

        def beat():
            nonlocal committed_at_last
            committed = history.count(TxnKind.UPDATE)
            if committed - committed_at_last < self.threshold:
                return 0, True
            committed_at_last = committed
            return 1, True

        return PolicyDriver(sim, coordinator, self.check_interval,
                            self.check_interval, beat)


class DivergencePolicy(AdvancementPolicy):
    """Advance once the update version has drifted far enough from the
    read version on watched data items (the paper's "when the difference
    in value of data items in different versions exceeds some threshold").

    Args:
        threshold: Advance when, summed over the watched items, the
            absolute difference between the freshest copy and the copy a
            reader sees exceeds this value.
        watch: ``(node_id, key)`` pairs to monitor; numeric items only.
        check_interval: How often to sample the stores.
    """

    def __init__(self, threshold: float,
                 watch: typing.Sequence[typing.Tuple[str, typing.Hashable]],
                 check_interval: float = 0.5):
        if threshold <= 0:
            raise ValueError(f"divergence threshold must be > 0: {threshold}")
        if not watch:
            raise ValueError("DivergencePolicy needs at least one watched item")
        self.threshold = threshold
        self.watch = list(watch)
        self.check_interval = check_interval

    def divergence(self) -> float:
        total = 0.0
        for node_id, key in self.watch:
            node = self.system.nodes[node_id]
            fresh = node.store.read_max_leq(key, node.vu, default=None)
            visible = node.store.read_max_leq(key, node.vr, default=None)
            if isinstance(fresh, (int, float)) and isinstance(
                visible, (int, float)
            ):
                total += abs(fresh - visible)
        return total

    def start(self, sim, coordinator, history):
        if self.system is None:
            raise ValueError("DivergencePolicy must be bound to a system")

        def beat():
            return int(self.divergence() > self.threshold), True

        return PolicyDriver(sim, coordinator, self.check_interval,
                            self.check_interval, beat)


class TransactionTriggerPolicy(AdvancementPolicy):
    """Advance after specific transactions commit (the paper's "after a
    particular update transaction commits" — e.g. an end-of-day marker).

    Args:
        txn_names: Transaction names that each trigger one advancement.
        check_interval: Polling cadence.
    """

    def __init__(self, txn_names: typing.Iterable[str],
                 check_interval: float = 0.25):
        self.txn_names = set(txn_names)
        if not self.txn_names:
            raise ValueError("TransactionTriggerPolicy needs trigger names")
        self.check_interval = check_interval

    def start(self, sim, coordinator, history):
        pending = set(self.txn_names)

        def beat():
            fired = {
                name for name in pending
                if name in history.txns
                and history.txns[name].global_complete_time is not None
                and not history.txns[name].aborted
            }
            pending.difference_update(fired)
            # One advancement per fired transaction; the driver ends
            # once every trigger has fired.
            return len(fired), bool(pending)

        return PolicyDriver(sim, coordinator, self.check_interval,
                            self.check_interval, beat)
