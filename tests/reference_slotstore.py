"""The three-slot store that the checking :class:`repro.storage.MVStore`
replaced.

Kept verbatim, for tests only, as the reference the differential in
``tests/test_slotstore.py`` runs ``MVStore(three_slots=True)`` against.
It is the paper's "a real implementation could re-use old version
numbers, employing only three distinct numbers" (Section 4): each data
item owns three physical slots, and logical version ``v`` lives in slot
``v mod 3``.  A new version whose slot holds a different live version
raises :class:`~repro.errors.StorageError` (``_claim_slot``); the checking
``MVStore`` applies that rule where it creates a version.

``write`` and ``write_exact`` are not verbatim: they are the store's
one-call step 4 as the two calls the protocol made before it had one
(``ensure_version``, then ``apply_geq`` or ``apply_exact``), so 3V can
run on this store unchanged.

One known divergence: ``collect``'s rename does not claim its slot, so
with live versions ``{0, 5}`` ``collect(2)`` writes version 2 over
version 5 and silently loses it.  The checking ``MVStore`` raises
there instead.
"""

from __future__ import annotations

import typing

from repro.errors import MissingItemError, MissingVersionError, StorageError
from repro.storage.values import Operation

_RAISE = object()

SLOTS = 3


class SlotStore:
    """Three physical version slots per key, tagged with logical versions."""

    def __init__(self):
        # key -> list of 3 optional (logical_version, value) pairs.
        self._slots: typing.Dict[
            typing.Hashable,
            typing.List[typing.Optional[typing.Tuple[int, typing.Any]]],
        ] = {}
        self.max_live_versions = 0
        self.dual_writes = 0
        self.total_writes = 0

    # ------------------------------------------------------------------
    # Introspection (MVStore-compatible)
    # ------------------------------------------------------------------

    def __contains__(self, key) -> bool:
        return key in self._slots

    def keys(self):
        return self._slots.keys()

    def _live(self, key) -> typing.List[typing.Tuple[int, typing.Any]]:
        return sorted(entry for entry in self._slots.get(key, ()) if entry)

    def versions(self, key) -> typing.List[int]:
        return [version for version, _value in self._live(key)]

    def exists(self, key, version: int) -> bool:
        entry = self._slot_entry(key, version)
        return entry is not None and entry[0] == version

    def exists_above(self, key, version: int) -> bool:
        return any(v > version for v in self.versions(key))

    def _slot_entry(self, key, version: int):
        slots = self._slots.get(key)
        if slots is None:
            return None
        return slots[version % SLOTS]

    def get_exact(self, key, version: int):
        entry = self._slot_entry(key, version)
        if entry is None or entry[0] != version:
            raise MissingVersionError((key, version))
        return entry[1]

    def version_max_leq(self, key, version: int) -> typing.Optional[int]:
        candidates = [v for v in self.versions(key) if v <= version]
        return max(candidates) if candidates else None

    def read_max_leq(self, key, version: int, default=_RAISE):
        found = self.version_max_leq(key, version)
        if found is None:
            if default is _RAISE:
                raise MissingItemError((key, version))
            return default
        return self.get_exact(key, found)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def load(self, key, value, version: int = 0) -> None:
        slots = self._slots.setdefault(key, [None] * SLOTS)
        slot = version % SLOTS
        if slots[slot] is not None:
            raise StorageError(f"duplicate load of {key!r} version {version}")
        slots[slot] = (version, value)
        self._note_size(key)

    def _claim_slot(self, key, version: int):
        """Claim the slot for ``version``, enforcing the 3-version bound."""
        slots = self._slots.setdefault(key, [None] * SLOTS)
        slot = version % SLOTS
        occupant = slots[slot]
        if occupant is not None and occupant[0] != version:
            raise StorageError(
                f"slot collision on {key!r}: version {version} maps to the "
                f"slot holding live version {occupant[0]} — more than "
                f"{SLOTS} concurrent versions (Section 4.4 bound violated)"
            )
        return slots, slot

    def ensure_version(self, key, version: int) -> bool:
        slots, slot = self._claim_slot(key, version)
        if slots[slot] is not None:
            return False
        base = self.version_max_leq(key, version)
        value = self.get_exact(key, base) if base is not None else None
        slots[slot] = (version, value)
        self._note_size(key)
        return True

    def apply_geq(self, key, version: int,
                  operation: Operation) -> typing.Tuple[int, ...]:
        if not self.exists(key, version):
            raise MissingVersionError((key, version))
        slots = self._slots[key]
        written = []
        for index, entry in enumerate(slots):
            if entry is not None and entry[0] >= version:
                slots[index] = (entry[0], operation.apply(entry[1]))
                written.append(entry[0])
        self.total_writes += len(written)
        if len(written) > 1:
            self.dual_writes += 1
        return tuple(sorted(written))

    def apply_exact(self, key, version: int, operation: Operation) -> None:
        if not self.exists(key, version):
            raise MissingVersionError((key, version))
        slots = self._slots[key]
        slot = version % SLOTS
        entry = slots[slot]
        slots[slot] = (version, operation.apply(entry[1]))
        self.total_writes += 1

    def write(self, key, version: int,
              operation: Operation) -> typing.Tuple[int, ...]:
        self.ensure_version(key, version)
        return self.apply_geq(key, version, operation)

    def write_exact(self, key, version: int,
                    operation: Operation) -> typing.Tuple[int]:
        self.ensure_version(key, version)
        self.apply_exact(key, version, operation)
        return (version,)

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def collect(self, read_version: int) -> int:
        dropped = 0
        for key, slots in self._slots.items():
            live = sorted(entry for entry in slots if entry)
            earlier = [entry for entry in live if entry[0] < read_version]
            if not earlier:
                continue
            has_current = any(entry[0] == read_version for entry in live)
            keep_value = earlier[-1][1]
            for index, entry in enumerate(slots):
                if entry is not None and entry[0] < read_version:
                    slots[index] = None
                    dropped += 1
            if not has_current:
                # Rename the latest earlier version to the read version.
                slots[read_version % SLOTS] = (read_version, keep_value)
        return dropped

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def _note_size(self, key) -> None:
        live = sum(1 for entry in self._slots[key] if entry)
        if live > self.max_live_versions:
            self.max_live_versions = live

    def live_version_histogram(self) -> typing.Dict[int, int]:
        histogram: typing.Dict[int, int] = {}
        for slots in self._slots.values():
            live = sum(1 for entry in slots if entry)
            histogram[live] = histogram.get(live, 0) + 1
        return histogram

    def snapshot(self) -> typing.Dict[typing.Hashable, typing.Dict[int, typing.Any]]:
        return {
            key: {version: value for version, value in self._live(key)}
            for key in self._slots
        }
