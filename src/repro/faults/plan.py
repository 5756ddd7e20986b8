"""Declarative, seed-deterministic fault plans.

A :class:`FaultPlan` is pure data: per-link drop/duplicate probabilities
and delay spikes (:class:`LinkFaults`), a timed crash/recover schedule
(:class:`CrashEvent`), retransmission tuning for the reliable-delivery
layer, and its own ``fault_seed``.  The injector
(:class:`~repro.faults.network.FaultyNetwork`) draws every fault decision
from an :class:`~repro.sim.distributions.RngRegistry` seeded with
``fault_seed`` — *not* the workload registry — so fault schedules are
bit-reproducible and completely independent of workload randomness: the
same workload seed with two different fault seeds submits the identical
transactions.

:meth:`FaultPlan.storm` builds the randomized-but-deterministic plan the
``repro chaos`` harness uses: uniform loss/duplication on every link plus
a non-overlapping crash/recover schedule per node, all derived from the
fault seed.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import SimulationError
from repro.net.reliable import RetransmitPolicy
from repro.sim.distributions import RngRegistry


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value < 1.0:
        raise SimulationError(
            f"{name} must be a probability in [0, 1), got {value!r}"
        )


@dataclasses.dataclass(frozen=True)
class LinkFaults:
    """Fault probabilities for one directed link (or the default).

    Attributes:
        drop: Probability a transmitted copy is silently lost.
        dup: Probability a transmitted copy is delivered twice.
        spike_probability: Probability a copy suffers a delay spike.
        spike_delay: Extra delay added when a spike fires.
    """

    drop: float = 0.0
    dup: float = 0.0
    spike_probability: float = 0.0
    spike_delay: float = 0.0

    def __post_init__(self):
        _check_probability("drop", self.drop)
        _check_probability("dup", self.dup)
        _check_probability("spike_probability", self.spike_probability)
        if self.spike_delay < 0:
            raise SimulationError(
                f"spike_delay must be >= 0, got {self.spike_delay!r}"
            )

    @property
    def active(self) -> bool:
        """Whether this link draws any fault randomness at all."""
        return bool(self.drop or self.dup or self.spike_probability)

    @property
    def lossy(self) -> bool:
        """Whether this link can lose or duplicate messages (needs the
        reliable-delivery layer to restore exactly-once semantics)."""
        return bool(self.drop or self.dup)


@dataclasses.dataclass(frozen=True)
class CrashEvent:
    """One scheduled fail-stop crash: ``node`` goes down at ``at`` for
    ``down_for`` simulated seconds, then recovers.

    ``node`` may also name a non-node crash target the driving system
    declares (e.g. the 3V advancement coordinator's ``"coordinator"``
    endpoint); :class:`repro.runtime.System` validates every target at
    wiring time, so a typo fails construction instead of silently never
    firing.
    """

    node: str
    at: float
    down_for: float

    def __post_init__(self):
        if self.at < 0 or self.down_for <= 0:
            raise SimulationError(
                f"crash schedule must have at >= 0 and down_for > 0, "
                f"got at={self.at!r} down_for={self.down_for!r}"
            )


@dataclasses.dataclass(frozen=True)
class PartitionEvent:
    """One timed network partition between two node groups, then a heal.

    From ``at`` until ``at + duration`` every physical copy sent from
    ``side_a`` to ``side_b`` is dropped at the transmission seam; with
    ``symmetric=True`` (the default) the reverse direction is cut too,
    while ``symmetric=False`` models an asymmetric link failure where
    ``side_b`` can still reach ``side_a``.  Healing is implicit: past the
    window the partition draws nothing and costs nothing.  Endpoints named
    in neither side (e.g. a coordinator endpoint left out of both groups)
    are unaffected.
    """

    side_a: typing.Tuple[str, ...]
    side_b: typing.Tuple[str, ...]
    at: float
    duration: float
    symmetric: bool = True

    def __post_init__(self):
        if self.at < 0 or self.duration <= 0:
            raise SimulationError(
                f"partition schedule must have at >= 0 and duration > 0, "
                f"got at={self.at!r} duration={self.duration!r}"
            )
        if not self.side_a or not self.side_b:
            raise SimulationError("partition sides must both be non-empty")
        set_a, set_b = frozenset(self.side_a), frozenset(self.side_b)
        if set_a & set_b:
            raise SimulationError(
                f"partition sides overlap: {sorted(set_a & set_b)}"
            )
        # Cached frozensets for the per-transmission membership test; not
        # dataclass fields, so eq/repr stay the declared schedule.
        object.__setattr__(self, "_set_a", set_a)
        object.__setattr__(self, "_set_b", set_b)

    @property
    def heal_at(self) -> float:
        return self.at + self.duration

    def cuts(self, src: str, dst: str, now: float) -> bool:
        """Whether a copy from ``src`` to ``dst`` at ``now`` is cut."""
        if not self.at <= now < self.heal_at:
            return False
        if src in self._set_a and dst in self._set_b:
            return True
        return (self.symmetric
                and src in self._set_b and dst in self._set_a)


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A complete, immutable fault schedule for one run.

    Attributes:
        fault_seed: Seed for the injector's private RNG registry.
        default_link: Faults applied to links without an override.
        links: Per-``(src, dst)`` overrides.
        crashes: Timed crash/recover events.
        partitions: Timed partition/heal events.
        retransmit: Tuning for the reliable-delivery layer.
    """

    fault_seed: int = 0
    default_link: LinkFaults = dataclasses.field(default_factory=LinkFaults)
    links: typing.Mapping[typing.Tuple[str, str], LinkFaults] = (
        dataclasses.field(default_factory=dict)
    )
    crashes: typing.Tuple[CrashEvent, ...] = ()
    partitions: typing.Tuple[PartitionEvent, ...] = ()
    retransmit: RetransmitPolicy = dataclasses.field(
        default_factory=RetransmitPolicy
    )

    def __post_init__(self):
        # Every physical copy asks ``cut``; the plan is frozen, so the
        # partition windows are laid out once and a copy sent while no
        # partition is open costs two comparisons per window, no call.
        # Not a dataclass field, so eq/repr stay the declared schedule.
        object.__setattr__(self, "_windows", tuple(
            (p.at, p.heal_at, p) for p in self.partitions
        ))

    def link(self, src: str, dst: str) -> LinkFaults:
        """The fault parameters governing one directed link."""
        return self.links.get((src, dst), self.default_link)

    def cut(self, src: str, dst: str, now: float) -> bool:
        """Whether an active partition cuts the ``src -> dst`` link now."""
        for opens, heals, partition in self._windows:
            if opens <= now < heals and partition.cuts(src, dst, now):
                return True
        return False

    @property
    def lossy(self) -> bool:
        """Whether any link can lose (or duplicate) messages.

        A partitioned plan counts: cross-partition copies are dropped
        outright, so without the reliable-delivery layer they would be
        lost forever instead of retransmitted after the heal.
        """
        return bool(self.partitions) or self.default_link.lossy or any(
            faults.lossy for faults in self.links.values()
        )

    def rng_registry(self) -> RngRegistry:
        """A fresh registry for fault draws (independent of the workload)."""
        return RngRegistry(self.fault_seed)

    @classmethod
    def storm(
        cls,
        node_ids: typing.Sequence[str],
        *,
        drop_rate: float = 0.0,
        dup_rate: float = 0.0,
        crash_count: int = 0,
        fault_seed: int = 0,
        duration: float = 30.0,
        spike_probability: float = 0.0,
        spike_delay: float = 0.0,
        crash_window: float = 0.7,
        partition_count: int = 0,
        retransmit: typing.Optional[RetransmitPolicy] = None,
    ) -> "FaultPlan":
        """A randomized fault storm, fully determined by ``fault_seed``.

        Every link gets the same drop/dup/spike parameters; each node gets
        ``crash_count`` non-overlapping crash/recover cycles at times drawn
        from the fault seed, confined to the first ``crash_window`` of
        ``duration`` (default 70%) so the post-storm drain observes a fully
        recovered cluster.  ``partition_count`` adds that many timed
        symmetric partition/heal cycles in the same window, each splitting
        the sorted node list at a seed-drawn point; partition draws come
        from their own RNG stream, so adding partitions never perturbs the
        crash schedule of an otherwise-identical plan.
        """
        if crash_count < 0:
            raise SimulationError(f"crash_count must be >= 0: {crash_count}")
        if partition_count < 0:
            raise SimulationError(
                f"partition_count must be >= 0: {partition_count}"
            )
        if duration <= 0:
            raise SimulationError(f"duration must be > 0: {duration}")
        if not 0.0 < crash_window <= 1.0:
            raise SimulationError(
                f"crash_window must be in (0, 1], got {crash_window!r}"
            )
        registry = RngRegistry(fault_seed)
        rng = registry.stream("faults.storm")
        window = crash_window * duration
        crashes: typing.List[CrashEvent] = []
        # Sorted node order: the schedule must not depend on caller order.
        for node in sorted(node_ids):
            if not crash_count:
                break
            # Partition the crash window into equal slices, one cycle per
            # slice: crashes on one node can never overlap.
            slice_width = window / crash_count
            for i in range(crash_count):
                slice_start = i * slice_width
                at = slice_start + rng.uniform(0.05, 0.45) * slice_width
                down_for = rng.uniform(0.1, 0.4) * slice_width
                crashes.append(CrashEvent(node=node, at=at, down_for=down_for))
        partitions: typing.List[PartitionEvent] = []
        ordered = sorted(node_ids)
        if partition_count and len(ordered) >= 2:
            p_rng = registry.stream("faults.storm.partitions")
            slice_width = window / partition_count
            for i in range(partition_count):
                slice_start = i * slice_width
                at = slice_start + p_rng.uniform(0.05, 0.45) * slice_width
                cut_for = p_rng.uniform(0.15, 0.45) * slice_width
                split = 1 + min(
                    len(ordered) - 2,
                    int(p_rng.uniform(0.0, 1.0) * (len(ordered) - 1)),
                )
                partitions.append(PartitionEvent(
                    side_a=tuple(ordered[:split]),
                    side_b=tuple(ordered[split:]),
                    at=at, duration=cut_for,
                ))
        return cls(
            fault_seed=fault_seed,
            default_link=LinkFaults(
                drop=drop_rate,
                dup=dup_rate,
                spike_probability=spike_probability,
                spike_delay=spike_delay,
            ),
            crashes=tuple(crashes),
            partitions=tuple(partitions),
            retransmit=(retransmit if retransmit is not None
                        else RetransmitPolicy()),
        )
