"""Multi-version key-value store — one per node.

Implements the versioned record behaviour of Section 4:

* ``read_max_leq`` — "read the maximum existing version of x that does not
  exceed V(T)" (Section 4.1 step 3 / Section 4.2).
* ``write`` — step 4 as one atomic store action: "check/create x(V(T))"
  by copy-on-update from the maximum existing version not exceeding
  ``V(T)``, then "update all versions of x greater or equal to version
  V(T)".  When a straggler subtransaction of an old version runs on a
  node that already advanced, this produces the paper's *dual write* to
  versions ``v`` and ``v+1``.  ``write_exact`` creates the same way but
  updates ``x(V(T))`` alone (NC3V step 4, and the protocols that keep one
  version per transaction); ``apply_exact`` updates one existing version
  and creates nothing (two-phase commit's rollback).
* ``collect`` — Phase 4 garbage collection: drop versions older than the new
  read version, renaming the latest earlier version when the new read
  version does not exist for an item.

The store also tracks the high-water mark of simultaneously live versions
per item, which lets tests and benchmarks verify the paper's "at most three
versions" bound (Section 4.4, properties 1a/2a).

**The three-slot rule.**  "A real implementation could re-use old version
numbers, employing only three distinct numbers" (Section 4): version ``v``
would live in slot ``v mod 3``.  A store built with ``three_slots=True``
enforces exactly what such a store needs: creating a new version ``v`` of
a key raises :class:`~repro.errors.StorageError` while a live version
``v' != v`` with ``v' = v (mod 3)`` exists.  The check runs only where a
version is created on an existing chain (``load``, a ``write`` or
``write_exact`` that creates, and ``collect``'s rename), so a violation
of the paper's bound fails loudly at the operation that causes it
instead of surviving as a fourth version.
The protocol plugin decides whether its stores check
(:meth:`~repro.runtime.plugin.ProtocolPlugin.make_store`).

Performance note: alongside each version chain the store maintains the
chain's **maximum live version**.  The paper bounds chains at three live
versions, and between advancements almost every chain has exactly one — so
the common reads (``read_max_leq`` at or above the chain head),
existence checks (``exists_above``), and writes at or above the head
(including the copy-on-update of a fresh version) all resolve from the
cached maximum in O(1) without scanning the chain: a write to an
existing head is one ``write`` call that calls nothing but the
operation's ``apply``.
"""

from __future__ import annotations

import typing

from repro.errors import MissingItemError, MissingVersionError, StorageError
from repro.storage.values import Operation

__all__ = ["MVStore"]

_RAISE: typing.Final[object] = object()


def _collision(key, version: int, live: int) -> StorageError:
    return StorageError(
        f"slot collision on {key!r}: version {version} vs live {live} — "
        f"more than three concurrent versions (Section 4.4 bound violated)"
    )


class MVStore:
    """A per-node store mapping ``key -> {version -> value}``."""

    __slots__ = ("_chains", "_maxes", "_three_slots", "max_live_versions",
                 "dual_writes", "total_writes")

    def __init__(self, three_slots: bool = False):
        self._chains: typing.Dict[typing.Hashable, typing.Dict[int, typing.Any]] = {}
        #: Per-key maximum live version (kept in lockstep with ``_chains``).
        self._maxes: typing.Dict[typing.Hashable, int] = {}
        #: Refuse a new version that shares its slot (``v mod 3``) with a
        #: live one (see the module docstring).
        self._three_slots = three_slots
        #: Highest number of simultaneously live versions ever seen (any key).
        self.max_live_versions: int = 0
        #: Number of :meth:`write` calls that touched more than one version.
        self.dual_writes: int = 0
        #: Total number of version applications performed.
        self.total_writes: int = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __contains__(self, key) -> bool:
        return key in self._chains

    def keys(self):
        return self._chains.keys()

    def versions(self, key) -> typing.List[int]:
        """Sorted list of live versions of ``key`` (empty if absent)."""
        chain = self._chains.get(key)
        return sorted(chain) if chain else []

    def exists_above(self, key, version: int) -> bool:
        """Does any version of ``key`` strictly greater than ``version`` exist?

        This is the NC3V abort check (Section 5, step 4).  O(1): some
        version exceeds ``version`` iff the chain maximum does.
        """
        maximum = self._maxes.get(key)
        return maximum is not None and maximum > version

    def floor_version(self, key, version: int) -> int:
        """Where a write at ``version`` lands once garbage collection may
        have moved ``key``'s chain past it: ``version`` itself, or the
        chain's lowest live version when that is higher."""
        if key in self._chains and version < self._maxes[key]:
            chain = self._chains[key]
            if version not in chain:
                lowest = min(chain)
                if lowest > version:
                    return lowest
        return version

    def get_exact(self, key, version: int):
        """Value of ``key`` at exactly ``version``."""
        chain = self._chains.get(key)
        if chain is None or version not in chain:
            raise MissingVersionError((key, version))
        return chain[version]

    def read_max_leq(self, key, version: int, default=_RAISE):
        """Value at the maximum existing version of ``key`` not above ``version``.

        Args:
            key: Data item identifier.
            version: Upper bound (the reader's transaction version).
            default: Returned when no qualifying version exists; raises
                :class:`MissingItemError` when omitted.
        """
        chain = self._chains.get(key)
        if chain:
            maximum = self._maxes[key]
            if maximum <= version:
                return chain[maximum]
            best = -1
            for v in chain:
                if best < v <= version:
                    best = v
            if best >= 0:
                return chain[best]
        if default is _RAISE:
            raise MissingItemError((key, version))
        return default

    def version_max_leq(self, key, version: int) -> typing.Optional[int]:
        """The maximum existing version of ``key`` not above ``version``."""
        chain = self._chains.get(key)
        if not chain:
            return None
        maximum = self._maxes[key]
        if maximum <= version:
            return maximum
        best = None
        for v in chain:
            if v <= version and (best is None or v > best):
                best = v
        return best

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def load(self, key, value, version: int = 0) -> None:
        """Install an initial value (bulk load before the simulation starts)."""
        chain = self._chains.get(key)
        if chain is None:
            self._chains[key] = {version: value}
            self._maxes[key] = version
            if self.max_live_versions < 1:
                self.max_live_versions = 1
            return
        if version in chain:
            raise StorageError(f"duplicate load of {key!r} version {version}")
        if self._three_slots:
            for live in chain:
                if (live - version) % 3 == 0:
                    raise _collision(key, version, live)
        chain[version] = value
        if version > self._maxes[key]:
            self._maxes[key] = version
        self._note_chain_size(chain)

    def write(self, key, version: int,
              operation: Operation) -> typing.Tuple[int, ...]:
        """Section 4.1 step 4 in one call: check/create ``key`` at
        ``version`` (copy-on-update, :meth:`_create`), then apply
        ``operation`` to every live version of ``key`` >= ``version``.

        Returns:
            The version numbers written, ascending (length > 1 means a
            dual write).
        """
        try:
            chain = self._chains[key]
        except KeyError:
            chain = self._create(key, version)
        else:
            maximum = self._maxes[key]
            if maximum < version:
                # Extending the chain head copies from the head.
                if self._three_slots:
                    for live in chain:
                        if (live - version) % 3 == 0:
                            raise _collision(key, version, live)
                chain[version] = chain[maximum]
                self._maxes[key] = version
                if len(chain) > self.max_live_versions:
                    self.max_live_versions = len(chain)
            elif maximum > version:
                # A straggler below the head: every version from it up.
                if version not in chain:
                    self._create(key, version)
                targets = sorted(v for v in chain if v >= version)
                for v in targets:
                    chain[v] = operation.apply(chain[v])
                self.total_writes += len(targets)
                if len(targets) > 1:
                    self.dual_writes += 1
                return tuple(targets)
        # The written version is the chain head, so it is the only
        # version >= itself: no scan, no dual write.
        chain[version] = operation.apply(chain[version])
        self.total_writes += 1
        return (version,)

    def write_exact(self, key, version: int,
                    operation: Operation) -> typing.Tuple[int]:
        """:meth:`write` to exactly one version: check/create ``key`` at
        ``version``, then apply ``operation`` there only.

        Returns:
            ``(version,)``, the version written.
        """
        chain = self._chains.get(key)
        if chain is None or version not in chain:
            chain = self._create(key, version)
        chain[version] = operation.apply(chain[version])
        self.total_writes += 1
        return (version,)

    def _create(self, key, version: int) -> dict:
        """Copy-on-update: add ``version`` (not yet live) to ``key``'s
        chain, valued as the maximum existing version not above it —
        ``None`` below the chain or for a brand-new item (the value
        algebra treats ``None`` as the identity state).  Returns the
        chain."""
        chain = self._chains.get(key)
        if chain is None:
            chain = self._chains[key] = {version: None}
            self._maxes[key] = version
            if self.max_live_versions < 1:
                self.max_live_versions = 1
            return chain
        if self._three_slots:
            for live in chain:
                if (live - version) % 3 == 0:
                    raise _collision(key, version, live)
        base = self.version_max_leq(key, version)
        chain[version] = chain[base] if base is not None else None
        if version > self._maxes[key]:
            self._maxes[key] = version
        self._note_chain_size(chain)
        return chain

    def apply_exact(self, key, version: int, operation: Operation) -> None:
        """Apply ``operation`` to exactly one existing version, creating
        nothing: two-phase commit's rollback, which undoes a write its
        transaction made (a missing version raises
        :class:`MissingVersionError`)."""
        chain = self._chains.get(key)
        if chain is None or version not in chain:
            raise MissingVersionError((key, version))
        chain[version] = operation.apply(chain[version])
        self.total_writes += 1

    # ------------------------------------------------------------------
    # Garbage collection (Section 4.3, Phase 4)
    # ------------------------------------------------------------------

    def collect(self, read_version: int) -> int:
        """Garbage-collect versions older than the new read version.

        For every item: if the item exists at ``read_version``, drop all
        earlier versions; otherwise rename its latest earlier version to
        ``read_version``.  Versions above ``read_version`` are untouched.

        Returns:
            Number of version copies physically dropped.
        """
        dropped = 0
        maxes = self._maxes
        for key, chain in self._chains.items():
            maximum = maxes[key]
            if maximum < read_version:
                # Whole chain is below the new read version: rename its
                # head to the read version and drop everything else.
                chain[read_version] = chain[maximum]
                maxes[key] = read_version
            else:
                # The newest version below the read version, if any: a
                # chain of one version at or above it stays as it is.
                newest = None
                for v in chain:
                    if v < read_version and (newest is None or v > newest):
                        newest = v
                if newest is None:
                    continue
                if read_version not in chain:
                    if self._three_slots:
                        # The earlier versions are dropped; a later one
                        # may hold the read version's slot.
                        for live in chain:
                            if live > read_version and (
                                    live - read_version) % 3 == 0:
                                raise _collision(key, read_version, live)
                    chain[read_version] = chain[newest]
            # Drop the earlier versions: a chain is short, so one plain
            # loop, with no sort and no generator frame.
            for v in [*chain]:
                if v < read_version:
                    del chain[v]
                    dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def _note_chain_size(self, chain: dict) -> None:
        if len(chain) > self.max_live_versions:
            self.max_live_versions = len(chain)

    def live_version_histogram(self) -> typing.Dict[int, int]:
        """Map ``number of live versions -> count of keys`` (current state)."""
        histogram: typing.Dict[int, int] = {}
        for chain in self._chains.values():
            histogram[len(chain)] = histogram.get(len(chain), 0) + 1
        return histogram

    def snapshot(self) -> typing.Dict[typing.Hashable, typing.Dict[int, typing.Any]]:
        """Deep-enough copy of the whole store (values are immutable).

        Inner-dict key order is insertion order, not version order;
        compare snapshots with ``==``, never by ordering.
        """
        return {key: dict(chain) for key, chain in self._chains.items()}
