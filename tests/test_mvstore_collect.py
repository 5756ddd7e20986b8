"""Phase-4 garbage collection against the sorting collect it replaced.

``MVStore.collect`` walks each chain with plain loops: a one-version
chain is renamed or left in place in O(1), and no chain is sorted or
walked by a generator.  ``reference_collect`` below is the former body,
verbatim but for ``self``, kept as a test-only reference.  On random
stores of one- to three-version chains, with the three-slot check on and
off, the two must leave equal chains (key order included), equal chain
maxima, equal ``dropped`` counts, and raise equal ``StorageError``s at the
same point.
"""

from __future__ import annotations

from hypothesis import assume, example, given
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import MVStore
from repro.storage.mvstore import _collision


def reference_collect(self, read_version: int) -> int:
    """``MVStore.collect`` before it dropped ``sorted``."""
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
            if self._three_slots:
                # The earlier versions are dropped; a later one may
                # hold the read version's slot.
                for live in chain:
                    if live > read_version and (
                            live - read_version) % 3 == 0:
                        raise _collision(key, read_version, live)
            chain[read_version] = chain[earlier[-1]]
        for v in earlier:
            del chain[v]
            dropped += 1
    return dropped


#: A chain: one to three distinct versions, loaded in the drawn order.
CHAINS = st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                  max_size=3, unique=True)


def build(chains, three_slots: bool) -> MVStore:
    store = MVStore(three_slots=three_slots)
    for key, versions in enumerate(chains):
        for version in versions:
            store.load(f"k{key}", (key, version), version=version)
    return store


def outcome(collect, store: MVStore, read_version: int):
    try:
        return collect(store, read_version)
    except StorageError as error:
        return f"StorageError: {error}"


def state(store: MVStore):
    return ([(key, list(chain.items())) for key, chain in
             store._chains.items()], dict(store._maxes))


@given(chains=st.lists(CHAINS, min_size=1, max_size=6),
       read_versions=st.lists(st.integers(min_value=0, max_value=6),
                              min_size=1, max_size=3),
       three_slots=st.booleans())
# A rename onto a slot a later version holds: the check must raise.
@example(chains=[[0], [1, 5]], read_versions=[2], three_slots=True)
def test_collect_matches_the_sorting_reference(chains, read_versions,
                                               three_slots):
    try:
        new = build(chains, three_slots)
    except StorageError:
        assume(False)  # a chain the three-slot rule cannot hold
    old = build(chains, three_slots)
    for read_version in read_versions:
        got = outcome(MVStore.collect, new, read_version)
        assert got == outcome(reference_collect, old, read_version)
        assert state(new) == state(old)
        if isinstance(got, str):
            break


def test_a_one_version_chain_is_renamed_or_left_in_place():
    store = MVStore(three_slots=True)
    store.load("below", "b", version=1)
    store.load("at", "a", version=4)
    store.load("above", "c", version=6)
    assert store.collect(4) == 1
    assert store.snapshot() == {"below": {4: "b"}, "at": {4: "a"},
                                "above": {6: "c"}}
    assert store.versions("below") == [4]
