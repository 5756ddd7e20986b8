"""The three-slot rule: the checking :class:`MVStore` against the slot store.

The paper notes a real implementation "could re-use old version numbers,
employing only three distinct numbers".  ``tests/reference_slotstore.py``
keeps the store that did so; ``MVStore(three_slots=True)`` is what every
protocol but manual versioning stores on now.  Here we prove the two are
observationally equivalent, and refuse exactly the same operations, on
any sequence of versions — inside the Section 4.4 window or not — but
one: the reference's ``collect`` loses a live version where the checking
store raises (see the reference's docstring).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ThreeVSystem
from repro.core import system as core_system
from repro.core.node import ThreeVPlugin
from repro.errors import MissingItemError, MissingVersionError, StorageError
from repro.faults import FaultPlan
from repro.runtime.registry import PROTOCOLS
from repro.sim import RngRegistry
from repro.storage import Increment, MVStore
from repro.workloads import (
    RecordingConfig,
    RecordingWorkload,
    build_system,
    run_recording_experiment,
)
from repro.workloads.arrivals import drive, poisson_arrivals
from tests.reference_slotstore import SlotStore


def checked_store():
    return MVStore(three_slots=True)


#: Each unit test runs on the reference and on the store 3V runs on.
STORES = (SlotStore, checked_store)


class TestUnitBehaviour:
    def test_basic_read_write(self):
        for make in STORES:
            store = make()
            store.load("x", 10)
            assert store.write("x", 1, Increment(5)) == (1,)
            assert store.get_exact("x", 0) == 10
            assert store.get_exact("x", 1) == 15
            assert store.read_max_leq("x", 7) == 15
            assert store.versions("x") == [0, 1]

    def test_missing_reads(self):
        for make in STORES:
            store = make()
            with pytest.raises(MissingItemError):
                store.read_max_leq("ghost", 2)
            assert store.read_max_leq("ghost", 2, default=None) is None
            store.load("x", 1, version=5)
            with pytest.raises(MissingVersionError):
                store.get_exact("x", 4)

    def test_duplicate_load_rejected(self):
        for make in STORES:
            store = make()
            store.load("x", 1)
            with pytest.raises(StorageError):
                store.load("x", 2, version=0)
            with pytest.raises(StorageError):
                store.load("x", 2, version=3)  # version 0's slot

    def test_fourth_concurrent_version_rejected(self):
        """Versions 0,1,2 occupy all slots; version 3 maps onto version
        0's slot and must be refused while 0 is live."""
        for make in STORES:
            store = make()
            store.load("x", 10)
            store.write("x", 1, Increment(1))
            store.write("x", 2, Increment(1))
            with pytest.raises(StorageError):
                store.write("x", 3, Increment(1))
            with pytest.raises(StorageError):
                store.write_exact("x", 3, Increment(1))
            assert store.snapshot() == {"x": {0: 10, 1: 11, 2: 12}}

    def test_slot_reuse_after_collect(self):
        for make in STORES:
            store = make()
            store.load("x", 10)
            for version in range(1, 9):
                store.write("x", version, Increment(1))
                store.collect(version)  # keep the window tight
            assert store.versions("x") == [8]
            assert store.get_exact("x", 8) == 18

    def test_collect_renames_latest_earlier(self):
        for make in STORES:
            store = make()
            store.load("cold", 7)
            store.collect(2)
            assert store.versions("cold") == [2]
            assert store.get_exact("cold", 2) == 7

    def test_histogram_and_snapshot(self):
        for make in STORES:
            store = make()
            store.load("x", 1)
            store.write("x", 1, Increment(0))
            store.load("y", 2)
            assert store.live_version_histogram() == {1: 1, 2: 1}
            assert store.snapshot() == {"x": {0: 1, 1: 1}, "y": {0: 2}}


def _collect_loses_a_version(store, read_version) -> bool:
    """Would ``collect(read_version)`` rename onto a live version's slot?

    The reference's known divergence (see its module docstring): its
    rename does not claim the slot, and overwrites that version silently.
    """
    for key in store.keys():
        versions = store.versions(key)
        if read_version in versions or versions[0] >= read_version:
            continue
        if any(v > read_version and (v - read_version) % 3 == 0
               for v in versions):
            return True
    return False


def _both(reference, checked, method, *args):
    """Run one call on both stores; both refuse it or neither does."""
    outcomes = []
    for store in (reference, checked):
        try:
            outcomes.append(getattr(store, method)(*args))
        except StorageError:
            outcomes.append(StorageError)
    assert outcomes[0] == outcomes[1], (method, args, outcomes)
    return outcomes[0]


class TestDifferentialAgainstMVStore:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["write", "write_exact", "read",
                                 "collect", "load"]),
                st.integers(min_value=0, max_value=2),  # key index
                # Version offset from the read version: 0-2 is the
                # protocol's window, 3-4 lie outside it.
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=-5, max_value=5),  # delta
            ),
            max_size=40,
        )
    )
    def test_same_observable_behaviour(self, script):
        """Any op sequence gives identical observations on both stores,
        and the checking store refuses exactly the operations at which
        the reference's slots collide."""
        reference, checked = SlotStore(), checked_store()
        base = 0
        keys = ["a", "b", "c"]
        for action, key_index, offset, delta in script:
            key = keys[key_index]
            version = base + offset
            if action == "load":
                _both(reference, checked, "load", key, 100, version)
            elif action.startswith("write"):
                if _both(reference, checked, action, key, version,
                         Increment(delta)) is StorageError:
                    continue
            elif action == "read":
                assert checked.read_max_leq(key, version, default=None) == (
                    reference.read_max_leq(key, version, default=None))
                assert checked.version_max_leq(key, version) == (
                    reference.version_max_leq(key, version))
                assert checked.exists_above(key, version) == (
                    reference.exists_above(key, version))
                assert checked.versions(key) == reference.versions(key)
            elif action == "collect":
                base += 1
                if _collect_loses_a_version(checked, base):
                    # Excluded: the reference silently loses a live
                    # version here; the checking store refuses.
                    with pytest.raises(StorageError):
                        checked.collect(base)
                    return
                assert checked.collect(base) == reference.collect(base)
            assert checked.snapshot() == reference.snapshot()
        assert checked.max_live_versions == reference.max_live_versions <= 3
        assert checked.dual_writes == reference.dual_writes
        assert checked.total_writes == reference.total_writes


class SlotStorePlugin(ThreeVPlugin):
    """3V storing on the reference slot store."""

    def make_store(self, node):
        return SlotStore()


class TestEndToEndWithSlotStore:
    def run_system(self, plugin_class, seed=19):
        node_ids = ["n0", "n1", "n2"]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core_system, "ThreeVPlugin", plugin_class)
            system = ThreeVSystem(node_ids, seed=seed, poll_interval=0.5)
        config = RecordingConfig(nodes=node_ids, entities=8, span=2,
                                 amount_mode="bitmask")
        workload = RecordingWorkload(config, RngRegistry(seed + 1))
        workload.install(system)
        arrivals = RngRegistry(seed + 2)
        drive(system, poisson_arrivals(arrivals, "u", 5.0, 20.0),
              workload.draw_recording, workload.build_recording)
        drive(system, poisson_arrivals(arrivals, "r", 3.0, 20.0),
              workload.draw_inquiry, workload.build_inquiry)
        for at in (5.0, 12.0):
            system.sim.schedule(at, self._try_advance, system)
        system.run(until=20.0)
        system.run_until_quiet()
        return system, workload

    @staticmethod
    def _try_advance(system):
        from repro.errors import AdvancementInProgress

        try:
            system.advance_versions()
        except AdvancementInProgress:
            pass

    def test_whole_protocol_identical_on_both_stores(self):
        mv_system, mv_workload = self.run_system(ThreeVPlugin)
        slot_system, _ = self.run_system(SlotStorePlugin)
        assert isinstance(slot_system.node("n0").store, SlotStore)
        mv_reads = {
            name: record.reads
            for name, record in mv_system.history.txns.items()
        }
        slot_reads = {
            name: record.reads
            for name, record in slot_system.history.txns.items()
        }
        assert mv_reads == slot_reads
        for node_id in mv_system.nodes:
            assert (
                mv_system.node(node_id).store.snapshot()
                == slot_system.node(node_id).store.snapshot()
            )

    def test_slot_store_passes_the_oracle(self):
        from repro.analysis import audit

        system, workload = self.run_system(SlotStorePlugin)
        report = audit(system.history, workload, check_snapshots=True)
        assert report.clean, report.violations[:3]


class TestWhoChecks:
    def test_every_protocol_but_manual_refuses_a_fourth_version(self):
        """Every registered protocol stores on the checking MVStore, with
        and without a fault plan, except manual versioning, which really
        keeps more than three versions (the paper's strawman)."""
        unchecked = {"manual", "manual-sync"}
        builds = [(name, {}) for name in PROTOCOLS]
        builds.append(("3v", {"allow_noncommuting": True}))  # NC3V
        for name, options in builds:
            for faults in (None, FaultPlan()):
                system = build_system(name, ["p", "q"], faults=faults,
                                      **options)
                store = system.node("p").store
                store.load("x", 0)
                store.write("x", 1, Increment(1))
                store.write("x", 2, Increment(1))
                if name in unchecked:
                    assert store.write("x", 3, Increment(1)) == (3,)
                else:
                    with pytest.raises(StorageError):
                        store.write("x", 3, Increment(1))
        result = run_recording_experiment("manual", duration=30.0, seed=0,
                                          detail=False)
        assert max(node.store.max_live_versions
                   for node in result.system.nodes.values()) > 3
