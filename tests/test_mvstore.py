"""Unit and property tests for the multi-version store."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MissingItemError, MissingVersionError, StorageError
from repro.storage import Increment, MVStore


@pytest.fixture
def store():
    s = MVStore()
    s.load("A", 100, version=0)
    s.load("B", 200, version=0)
    return s


class TestReads:
    def test_read_max_leq_exact(self, store):
        assert store.read_max_leq("A", 0) == 100

    def test_read_max_leq_falls_back_to_older(self, store):
        assert store.read_max_leq("A", 5) == 100

    def test_read_max_leq_missing_raises(self, store):
        with pytest.raises(MissingItemError):
            store.read_max_leq("ghost", 3)

    def test_read_max_leq_default(self, store):
        assert store.read_max_leq("ghost", 3, default=None) is None

    def test_read_below_lowest_version_raises(self):
        store = MVStore()
        store.load("A", 1, version=5)
        with pytest.raises(MissingItemError):
            store.read_max_leq("A", 4)

    def test_get_exact(self, store):
        assert store.get_exact("A", 0) == 100
        with pytest.raises(MissingVersionError):
            store.get_exact("A", 1)

    def test_exists_and_exists_above(self, store):
        assert 0 in store.versions("A")
        assert 1 not in store.versions("A")
        assert not store.exists_above("A", 0)
        store.write("A", 2, Increment(1))
        assert store.exists_above("A", 0)
        assert store.exists_above("A", 1)
        assert not store.exists_above("A", 2)

    def test_contains_and_keys(self, store):
        assert "A" in store
        assert "ghost" not in store
        assert sorted(store.keys()) == ["A", "B"]


class TestCopyOnUpdate:
    def test_write_copies_from_base(self, store):
        assert store.write("A", 1, Increment(1)) == (1,)
        assert store.get_exact("A", 1) == 101
        assert store.get_exact("A", 0) == 100

    def test_write_to_an_existing_version_creates_nothing(self, store):
        store.write("A", 1, Increment(1))
        assert store.write("A", 1, Increment(1)) == (1,)
        assert store.get_exact("A", 1) == 102
        assert store.versions("A") == [0, 1]
        assert store.max_live_versions == 2

    def test_new_item_starts_from_none(self):
        """The first write of an item applies to ``None``, which the
        value algebra treats as the identity state."""
        store = MVStore()
        assert store.write("new", 2, Increment(5)) == (2,)
        assert store.write_exact("other", 1, Increment(3)) == (1,)
        assert store.snapshot() == {"new": {2: 5}, "other": {1: 3}}

    def test_copy_skips_newer_versions(self):
        """A version-1 creation must copy from version 0, not version 2."""
        store = MVStore()
        store.load("X", 10, version=0)
        store.write("X", 2, Increment(100))
        store.write("X", 1, Increment(1))
        assert store.get_exact("X", 1) == 11
        assert store.get_exact("X", 2) == 111

    def test_duplicate_load_raises(self, store):
        with pytest.raises(StorageError):
            store.load("A", 1, version=0)


class TestWrite:
    def test_single_version_write(self, store):
        written = store.write("A", 1, Increment(5))
        assert written == (1,)
        assert store.get_exact("A", 1) == 105
        assert store.get_exact("A", 0) == 100
        assert store.dual_writes == 0

    def test_dual_write_updates_both_versions(self, store):
        """Straggler at version 1 on a node already holding version 2."""
        store.write("A", 2, Increment(0))
        written = store.write("A", 1, Increment(5))
        assert written == (1, 2)
        assert store.get_exact("A", 1) == 105
        assert store.get_exact("A", 2) == 105
        assert store.get_exact("A", 0) == 100
        assert store.dual_writes == 1

    def test_write_creates_the_missing_version(self, store):
        """Copy-on-update inside the write: version 1 does not exist, so
        it is created from version 0, then updated (Section 4.1 step 4)."""
        assert store.write("A", 1, Increment(5)) == (1,)
        assert store.snapshot()["A"] == {0: 100, 1: 105}
        assert store.max_live_versions == 2
        assert store.total_writes == 1

    def test_write_exact_touches_one_version(self, store):
        store.write("A", 2, Increment(0))
        assert store.write_exact("A", 1, Increment(5)) == (1,)
        assert store.get_exact("A", 1) == 105
        assert store.get_exact("A", 2) == 100
        assert store.dual_writes == 0

    def test_apply_exact_touches_one_version_and_creates_none(self, store):
        """Two-phase commit's undo: one existing version, and a missing
        one still raises instead of being created."""
        store.write("A", 1, Increment(0))
        store.write("A", 2, Increment(0))
        store.apply_exact("A", 1, Increment(5))
        assert store.get_exact("A", 1) == 105
        assert store.get_exact("A", 2) == 100
        with pytest.raises(MissingVersionError):
            store.apply_exact("A", 3, Increment(5))
        with pytest.raises(MissingVersionError):
            store.apply_exact("ghost", 0, Increment(5))
        assert store.versions("A") == [0, 1, 2]
        assert "ghost" not in store

    def test_dual_write_with_record_operation(self, store):
        """Dual writes apply to multiset observations too (the recording
        workload's log entries), not just numeric summaries."""
        from repro.storage import Record

        store.load("log", (), version=0)
        store.write("log", 2, Record("late-era"))
        written = store.write("log", 1, Record("straggler"))
        assert written == (1, 2)
        assert store.get_exact("log", 1) == ("straggler",)
        assert sorted(store.get_exact("log", 2)) == ["late-era", "straggler"]


class TestGarbageCollection:
    def test_collect_drops_old_versions(self, store):
        store.write("A", 1, Increment(1))
        dropped = store.collect(1)
        assert dropped >= 1
        assert store.versions("A") == [1]
        assert store.get_exact("A", 1) == 101

    def test_collect_renames_when_new_read_version_missing(self, store):
        """Item B was never written in version 1: its version 0 copy is
        renamed to version 1 (Phase 4 rule)."""
        store.collect(1)
        assert store.versions("B") == [1]
        assert store.get_exact("B", 1) == 200

    def test_collect_keeps_newer_versions(self, store):
        store.write("A", 1, Increment(0))
        store.write("A", 2, Increment(0))
        store.collect(1)
        assert store.versions("A") == [1, 2]

    def test_collect_noop_when_nothing_older(self, store):
        assert store.collect(0) == 0


class TestStatistics:
    def test_max_live_versions_high_water_mark(self, store):
        assert store.max_live_versions == 1
        store.write("A", 1, Increment(0))
        store.write("A", 2, Increment(0))
        assert store.max_live_versions == 3
        store.collect(2)
        # High-water mark is sticky even after GC.
        assert store.max_live_versions == 3

    def test_live_version_histogram(self, store):
        store.write("A", 1, Increment(0))
        assert store.live_version_histogram() == {1: 1, 2: 1}

    def test_snapshot_is_detached(self, store):
        snap = store.snapshot()
        store.write("A", 1, Increment(1))
        assert snap == {"A": {0: 100}, "B": {0: 200}}


class TestVersionLifecycleProperties:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=3),
                      st.integers(min_value=-10, max_value=10)),
            max_size=30,
        )
    )
    def test_three_version_bound_under_protocol_usage(self, writes):
        """If writers only ever use versions {v, v+1, v+2} between GCs (as
        the 3V protocol guarantees), at most three versions are ever live."""
        store = MVStore()
        store.load("K", 0, version=0)
        base = 0
        for version_offset, delta in writes:
            if version_offset == 3:
                base += 1
                store.collect(base)
            else:
                v = base + version_offset
                store.write("K", v, Increment(delta))
            assert len(store.versions("K")) <= 3
        assert store.max_live_versions <= 3

    @given(st.lists(st.integers(min_value=-100, max_value=100), max_size=20))
    def test_older_version_isolated_from_newer_writes(self, deltas):
        """Writes at version 1 never leak into the version-0 copy."""
        store = MVStore()
        store.load("K", 42, version=0)
        store.write("K", 1, Increment(0))
        for delta in deltas:
            store.write("K", 1, Increment(delta))
        assert store.get_exact("K", 0) == 42
        assert store.get_exact("K", 1) == 42 + sum(deltas)


class TestThreeSlotRule:
    """``three_slots=True``: version ``v`` may not share slot ``v mod 3``
    with a different live version, wherever a version is created."""

    def test_write_refuses_a_fourth_version(self):
        store = MVStore(three_slots=True)
        store.load("x", 10)
        store.write("x", 1, Increment(1))
        store.write("x", 2, Increment(1))
        with pytest.raises(StorageError, match="version 3 vs live 0"):
            store.write("x", 3, Increment(1))
        with pytest.raises(StorageError, match="version 3 vs live 0"):
            store.write_exact("x", 3, Increment(1))
        with pytest.raises(StorageError):
            store.write("x", -1, Increment(1))  # below the chain, slot of 2
        assert store.snapshot() == {"x": {0: 10, 1: 11, 2: 12}}
        assert store.max_live_versions == 3
        assert store.total_writes == 2  # the refused writes wrote nothing

    def test_load_refuses_a_colliding_version(self):
        store = MVStore(three_slots=True)
        store.load("x", 10)
        with pytest.raises(StorageError, match="slot collision"):
            store.load("x", 20, version=3)
        store.load("x", 20, version=4)
        assert store.snapshot() == {"x": {0: 10, 4: 20}}

    def test_collect_refuses_to_rename_onto_a_live_slot(self):
        """Live ``{0, 5}``: renaming 0 to the new read version 2 would
        land in 5's slot (the three-slot store overwrote 5 silently)."""
        store = MVStore(three_slots=True)
        store.load("x", 10)
        store.write("x", 5, Increment(0))  # residues 0 and 2: allowed
        with pytest.raises(StorageError, match="version 2 vs live 5"):
            store.collect(2)
        assert store.snapshot() == {"x": {0: 10, 5: 10}}

    def test_collect_may_reuse_the_slots_it_frees(self):
        store = MVStore(three_slots=True)
        store.load("x", 10)
        store.write("x", 4, Increment(0))
        assert store.collect(3) == 1  # 0 is dropped, so 3 may take its slot
        assert store.snapshot() == {"x": {3: 10, 4: 10}}

    def test_unchecked_store_keeps_any_number_of_versions(self):
        store = MVStore()
        store.load("x", 10)
        store.load("x", 10, version=3)
        for version in (5, 6, 7, 8):
            store.write("x", version, Increment(0))
        store.collect(2)
        assert store.versions("x") == [2, 3, 5, 6, 7, 8]
        assert store.max_live_versions == 6
