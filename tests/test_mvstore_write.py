"""Section 4.1 step 4 as one store call, against the two calls it replaced.

``MVStore.write`` checks/creates ``x(V(T))`` and updates every version
``>= V(T)`` in one call, and ``MVStore.write_exact`` creates the same way
and updates ``x(V(T))`` alone.  ``reference_ensure_version`` and
``reference_apply_geq`` below are the former bodies of
``MVStore.ensure_version`` and ``MVStore.apply_geq``, verbatim but for
``self``, kept as a test-only reference; the exact form's reference is
``reference_ensure_version`` then ``MVStore.apply_exact``, which is still
the store's non-creating apply.  On random stores of one- to
three-version chains, with the three-slot check on and off, and writes
at, below (a dual write) and above each chain's head or to a brand-new
key, the two must return the same versions, leave equal chains (key
order included) and chain maxima, count the same ``total_writes`` /
``dual_writes`` / ``max_live_versions``, and raise equal
``StorageError``s — a slot collision, or an operation refusing the value
it is applied to — leaving equal state behind.
"""

from __future__ import annotations

import typing

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import MissingVersionError, StorageError
from repro.storage import Increment, MVStore
from repro.storage.mvstore import _collision
from repro.storage.values import Operation


def reference_ensure_version(self, key, version: int) -> bool:
    """``MVStore.ensure_version`` before the write absorbed it."""
    chain = self._chains.get(key)
    if chain is None:
        self._chains[key] = {version: None}
        self._maxes[key] = version
        if self.max_live_versions < 1:
            self.max_live_versions = 1
        return True
    if version in chain:
        return False
    if self._three_slots:
        for live in chain:
            if (live - version) % 3 == 0:
                raise _collision(key, version, live)
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


def reference_apply_geq(self, key, version: int,
                        operation: Operation) -> typing.Tuple[int, ...]:
    """``MVStore.apply_geq`` before the write absorbed it."""
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


def reference_write(store, key, version, operation):
    reference_ensure_version(store, key, version)
    return reference_apply_geq(store, key, version, operation)


def reference_write_exact(store, key, version, operation):
    reference_ensure_version(store, key, version)
    store.apply_exact(key, version, operation)
    return (version,)


#: A chain: one to three distinct versions, loaded in the drawn order,
#: holding numbers or (where an increment refuses them) strings.
CHAINS = st.tuples(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3,
             unique=True),
    st.booleans())

#: One write: (key index, version, dual, delta).  Key index 3 is never
#: loaded, so its first write creates the item.
WRITES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=7), st.booleans(),
              st.integers(min_value=-3, max_value=3)),
    min_size=1, max_size=8)


def build(chains, three_slots: bool) -> MVStore:
    store = MVStore(three_slots=three_slots)
    for key, (versions, numeric) in enumerate(chains):
        for version in versions:
            value = 10 * version + key if numeric else f"k{key}v{version}"
            store.load(f"k{key}", value, version=version)
    return store


def outcome(write, store: MVStore, key, version, operation):
    try:
        return write(store, key, version, operation)
    except StorageError as error:
        return f"{type(error).__name__}: {error}"


def state(store: MVStore):
    return ([(key, list(chain.items())) for key, chain in
             store._chains.items()], dict(store._maxes),
            store.total_writes, store.dual_writes, store.max_live_versions)


@settings(max_examples=300, deadline=None)
@given(chains=st.lists(CHAINS, min_size=1, max_size=3), writes=WRITES,
       three_slots=st.booleans())
# A straggler below the head: a dual write to both versions.
@example(chains=[([0, 2], True)], writes=[(0, 1, True, 1)],
         three_slots=True)
# A new head that would share a live version's slot.
@example(chains=[([0, 1, 2], True)], writes=[(0, 3, True, 1)],
         three_slots=True)
# An increment refused on a created version: the creation stays.
@example(chains=[([0], False)], writes=[(0, 1, True, 1)],
         three_slots=False)
def test_one_call_write_matches_the_two_call_reference(chains, writes,
                                                       three_slots):
    try:
        new = build(chains, three_slots)
    except StorageError:
        assume(False)  # a chain the three-slot rule cannot hold
    old = build(chains, three_slots)
    for key_index, version, dual, delta in writes:
        key = f"k{key_index}"
        if dual:
            got = outcome(MVStore.write, new, key, version, Increment(delta))
            expected = outcome(reference_write, old, key, version,
                               Increment(delta))
        else:
            got = outcome(MVStore.write_exact, new, key, version,
                          Increment(delta))
            expected = outcome(reference_write_exact, old, key, version,
                               Increment(delta))
        assert got == expected
        assert state(new) == state(old)

