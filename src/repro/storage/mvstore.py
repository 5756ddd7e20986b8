"""Multi-version key-value store — one per node.

Implements the versioned record behaviour of Section 4:

* ``read_max_leq`` — "read the maximum existing version of x that does not
  exceed V(T)" (Section 4.1 step 3 / Section 4.2).
* ``ensure_version`` — copy-on-update creation of ``x(V(T))`` from the
  maximum existing version not exceeding ``V(T)`` (step 4, first half).
* ``apply_geq`` — "update all versions of x greater or equal to version
  V(T)" (step 4, second half).  When a straggler subtransaction of an old
  version runs on a node that already advanced, this produces the paper's
  *dual write* to versions ``v`` and ``v+1``.
* ``collect`` — Phase 4 garbage collection: drop versions older than the new
  read version, renaming the latest earlier version when the new read
  version does not exist for an item.

The store also tracks the high-water mark of simultaneously live versions
per item, which lets tests and benchmarks verify the paper's "at most three
versions" bound (Section 4.4, properties 1a/2a).

Performance note: alongside each version chain the store maintains the
chain's **maximum live version**.  The paper bounds chains at three live
versions, and between advancements almost every chain has exactly one — so
the common reads (``read_max_leq`` at or above the chain head),
existence checks (``exists_above``), and copy-on-update
(``ensure_version`` of a fresh version above the head) all resolve from the
cached maximum in O(1) without scanning the chain.
"""

from __future__ import annotations

import typing

from repro.errors import MissingItemError, MissingVersionError, StorageError
from repro.storage.values import Operation

__all__ = ["MVStore"]

_RAISE: typing.Final[object] = object()


class MVStore:
    """A per-node store mapping ``key -> {version -> value}``."""

    __slots__ = ("_chains", "_maxes", "max_live_versions", "dual_writes",
                 "total_writes")

    def __init__(self):
        self._chains: typing.Dict[typing.Hashable, typing.Dict[int, typing.Any]] = {}
        #: Per-key maximum live version (kept in lockstep with ``_chains``).
        self._maxes: typing.Dict[typing.Hashable, int] = {}
        #: Highest number of simultaneously live versions ever seen (any key).
        self.max_live_versions: int = 0
        #: Number of ``apply_geq`` calls that touched more than one version.
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

    def exists(self, key, version: int) -> bool:
        """Does ``key`` exist at exactly ``version``?"""
        chain = self._chains.get(key)
        return chain is not None and version in chain

    def exists_above(self, key, version: int) -> bool:
        """Does any version of ``key`` strictly greater than ``version`` exist?

        This is the NC3V abort check (Section 5, step 4).  O(1): some
        version exceeds ``version`` iff the chain maximum does.
        """
        maximum = self._maxes.get(key)
        return maximum is not None and maximum > version

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
        chain[version] = value
        if version > self._maxes[key]:
            self._maxes[key] = version
        self._note_chain_size(chain)

    def ensure_version(self, key, version: int) -> bool:
        """Atomically check-and-create ``key`` at ``version`` (copy-on-update).

        The new version copies the value of the maximum existing version not
        above ``version``; a brand-new item starts from ``None`` (the value
        algebra treats ``None`` as the identity state).

        Returns:
            ``True`` if the version was created, ``False`` if it existed.
        """
        chain = self._chains.get(key)
        if chain is None:
            self._chains[key] = {version: None}
            self._maxes[key] = version
            if self.max_live_versions < 1:
                self.max_live_versions = 1
            return True
        if version in chain:
            return False
        maximum = self._maxes[key]
        if maximum < version:
            # Common case: extending the chain head copies from the head.
            chain[version] = chain[maximum]
            self._maxes[key] = version
        else:
            base = None
            for v in chain:
                if v <= version and (base is None or v > base):
                    base = v
            chain[version] = chain[base] if base is not None else None
        self._note_chain_size(chain)
        return True

    def apply_geq(self, key, version: int,
                  operation: Operation) -> typing.Tuple[int, ...]:
        """Apply ``operation`` to every live version of ``key`` >= ``version``.

        The caller must have ensured that ``key`` exists at ``version``
        (Section 4.1 step 4 creates it first).

        Returns:
            The version numbers written, ascending (length > 1 means a
            dual write).
        """
        chain = self._chains.get(key)
        if chain is None or version not in chain:
            raise MissingVersionError((key, version))
        if self._maxes[key] == version:
            # Fast path: the written version is the chain head, so it is the
            # only version >= itself — no scan, no dual write.
            chain[version] = operation.apply(chain[version])
            self.total_writes += 1
            return (version,)
        targets = sorted(v for v in chain if v >= version)
        for v in targets:
            chain[v] = operation.apply(chain[v])
        self.total_writes += len(targets)
        if len(targets) > 1:
            self.dual_writes += 1
        return tuple(targets)

    def apply_exact(self, key, version: int, operation: Operation) -> None:
        """Apply ``operation`` to exactly one version (NC3V step 4)."""
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
            if maxes[key] < read_version:
                # Whole chain is below the new read version: rename its
                # head to the read version and drop everything else.
                earlier = sorted(chain)
                chain[read_version] = chain[earlier[-1]]
                for v in earlier:
                    del chain[v]
                    dropped += 1
                maxes[key] = read_version
                continue
            earlier = sorted(v for v in chain if v < read_version)
            if not earlier:
                continue
            if read_version not in chain:
                chain[read_version] = chain[earlier[-1]]
            for v in earlier:
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
