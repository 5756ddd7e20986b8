"""Write-ahead logging for crash-recovery (fault-injection support).

The paper defers recovery to "standard logging techniques" (Section 6,
citing Bernstein/Hadzilacos/Goodman); this module supplies the simulated
equivalent.  Each node keeps a :class:`NodeJournal` — an ordered redo log
of every mutation applied to its durable components (the multi-version
store and, for 3V, the request/completion counter table).  A crash
discards the volatile component objects; recovery rebuilds each one from
its factory and replays the log, restoring exactly the pre-crash state.

The wrappers are transparent: :class:`JournaledStore` forwards the full
read surface of :class:`~repro.storage.mvstore.MVStore` (a replay
rebuilds the store from the plugin's ``make_store``, so a checking store
refuses a colliding version again), and :class:`JournaledCounters` wraps
:class:`~repro.storage.counters.CounterTable`.  Journaling draws no
randomness and schedules no simulation events, so enabling it never
perturbs a run's determinism digest.
"""

from __future__ import annotations

import typing


class JournaledComponent:
    """Base wrapper: record mutator calls, forward everything else.

    Subclasses list their journaled methods explicitly (a mutation that
    bypasses the journal would silently not survive a crash, so the
    mutator set is part of each wrapper's contract).  Attribute reads fall
    through to the wrapped object via ``__getattr__``; dunder methods used
    on the hot paths (``in``) are forwarded explicitly because
    special-method lookup skips ``__getattr__``.
    """

    def __init__(self, inner, factory: typing.Callable[[], typing.Any]):
        # Set via object attribute assignment *before* anything that could
        # trigger __getattr__ recursion.
        self._inner = inner
        self._factory = factory
        self._log: typing.List[typing.Tuple[str, tuple]] = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    @property
    def raw(self):
        """The wrapped component (for tests/inspection)."""
        return self._inner

    @property
    def journal_length(self) -> int:
        return len(self._log)

    def replay(self) -> None:
        """Discard the component and rebuild it from the redo log."""
        fresh = self._factory()
        for method, args in self._log:
            getattr(fresh, method)(*args)
        self._inner = fresh


class JournaledStore(JournaledComponent):
    """Redo-logging wrapper over an ``MVStore``-shaped versioned store."""

    def load(self, key, value, version: int = 0):
        self._log.append(("load", (key, value, version)))
        return self._inner.load(key, value, version=version)

    def ensure_version(self, key, version: int):
        self._log.append(("ensure_version", (key, version)))
        return self._inner.ensure_version(key, version)

    def apply_geq(self, key, version: int, operation):
        self._log.append(("apply_geq", (key, version, operation)))
        return self._inner.apply_geq(key, version, operation)

    def apply_exact(self, key, version: int, operation):
        self._log.append(("apply_exact", (key, version, operation)))
        return self._inner.apply_exact(key, version, operation)

    def collect(self, read_version: int):
        self._log.append(("collect", (read_version,)))
        return self._inner.collect(read_version)

    def __contains__(self, key) -> bool:
        return key in self._inner


class JournaledCounters(JournaledComponent):
    """Redo-logging wrapper over a ``CounterTable``.

    Replaying increments aimed at garbage-collected versions is safe: the
    fresh table sees the same ``gc_below`` calls in the same order, so it
    drops (and counts) exactly the increments the original dropped.
    """

    def ensure_version(self, version: int):
        self._log.append(("ensure_version", (version,)))
        return self._inner.ensure_version(version)

    def gc_below(self, version: int):
        self._log.append(("gc_below", (version,)))
        return self._inner.gc_below(version)

    def inc_request(self, version: int, dst: str):
        self._log.append(("inc_request", (version, dst)))
        return self._inner.inc_request(version, dst)

    def inc_completion(self, version: int, src: str):
        self._log.append(("inc_completion", (version, src)))
        return self._inner.inc_completion(version, src)


class CoordinatorState:
    """The advancement coordinator's durable control record.

    Four scalars capture everything a successor incarnation needs to take
    over mid-protocol: the committed read/update versions, the in-flight
    wave's target update version (``None`` between waves), and the highest
    advancement epoch ever issued.  The record is deliberately tiny —
    phase progress *within* a wave is not logged, because every phase is
    idempotent (version bumps no-op at or below the node's current
    version; RT/CT aggregates are monotone, so re-gathering never
    double-counts) and a successor simply re-runs the wave from the top.
    """

    def __init__(self):
        self.vr = 0
        self.vu = 1
        self.epoch = 1
        self.in_flight: typing.Optional[int] = None

    def set_vu(self, version: int) -> None:
        self.vu = version

    def set_vr(self, version: int) -> None:
        self.vr = version

    def set_epoch(self, epoch: int) -> None:
        self.epoch = epoch

    def begin_wave(self, vu_new: int) -> None:
        self.in_flight = vu_new

    def end_wave(self) -> None:
        self.in_flight = None


class JournaledCoordinatorState(JournaledComponent):
    """Redo-logging wrapper over :class:`CoordinatorState`.

    The coordinator role's equivalent of a node's journaled store: a
    crashed incarnation's volatile object is discarded and the record is
    rebuilt from the log, modelling the paper's "standard logging
    techniques" applied to the control plane (the log is what a standby
    reads to take the role over).
    """

    def __init__(self, inner: typing.Optional[CoordinatorState] = None):
        super().__init__(
            inner if inner is not None else CoordinatorState(),
            CoordinatorState,
        )

    def set_vu(self, version: int) -> None:
        self._log.append(("set_vu", (version,)))
        return self._inner.set_vu(version)

    def set_vr(self, version: int) -> None:
        self._log.append(("set_vr", (version,)))
        return self._inner.set_vr(version)

    def set_epoch(self, epoch: int) -> None:
        self._log.append(("set_epoch", (epoch,)))
        return self._inner.set_epoch(epoch)

    def begin_wave(self, vu_new: int) -> None:
        self._log.append(("begin_wave", (vu_new,)))
        return self._inner.begin_wave(vu_new)

    def end_wave(self) -> None:
        self._log.append(("end_wave", ()))
        return self._inner.end_wave()


class NodeJournal:
    """A node's collection of journaled components.

    The runtime attaches the journaled store at node construction; plugins
    attach further components (3V attaches its counter table) from
    ``init_node``.  ``replay()`` is the whole recovery story for durable
    state: every attached component is rebuilt from its redo log.
    """

    def __init__(self, node_id: str):
        self.node_id = node_id
        self._components: typing.Dict[str, JournaledComponent] = {}
        self.replays = 0

    def attach(self, name: str, component: JournaledComponent) -> None:
        self._components[name] = component

    def component(self, name: str) -> JournaledComponent:
        return self._components[name]

    @property
    def names(self) -> typing.Tuple[str, ...]:
        return tuple(self._components)

    def replay(self) -> None:
        """Rebuild every journaled component from its log (crash recovery)."""
        for component in self._components.values():
            component.replay()
        self.replays += 1
