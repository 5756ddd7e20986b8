"""Replication: placement maps, refresh, and recovery-readability.

The placement layer's contract has three parts, each tested here:

* ``ReplicaMap`` is a pure, seeded function of its inputs — same seed,
  same map, on every host — with structural invariants (distinct
  replicas, consecutive ring segments, rf=1 collapsing to the historic
  single-owner assignment) and statistical balance.
* Refresh makes a crashed-and-recovered replica's copy byte-equal to the
  copies that never crashed, even when the *source* of the transfer has
  itself crashed and recovered.
* Recovery-readability: a recovered-but-unrefreshed replica never serves
  a read — readers gate on the refresh, then observe the refreshed state.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ThreeVSystem
from repro.errors import SimulationError
from repro.exp import ExperimentSpec
from repro.faults import FaultPlan
from repro.placement import PlacementState, ReplicaMap
from repro.storage import Increment
from repro.txn import ReadOp, SubtxnSpec, TransactionSpec, WriteOp
from repro.workloads import RecordingConfig, run_recording_experiment

MAPS = settings(
    max_examples=50, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_map(n_nodes, entities, span, rf, seed):
    nodes = [f"n{i:02d}" for i in range(n_nodes)]
    return ReplicaMap.generate(nodes, entities, span, rf,
                               random.Random(seed))


@st.composite
def map_params(draw):
    n_nodes = draw(st.integers(min_value=1, max_value=8))
    return {
        "n_nodes": n_nodes,
        "entities": draw(st.integers(min_value=0, max_value=40)),
        "span": draw(st.integers(min_value=1, max_value=n_nodes)),
        "rf": draw(st.integers(min_value=1, max_value=n_nodes)),
        "seed": draw(st.integers(min_value=0, max_value=2**32 - 1)),
    }


class TestReplicaMapProperties:
    @MAPS
    @given(map_params())
    def test_generation_is_deterministic(self, params):
        """Same nodes + seed -> the identical map, draw for draw."""
        first = make_map(**params)
        second = make_map(**params)
        assert list(first.slot_items()) == list(second.slot_items())

    @MAPS
    @given(map_params())
    def test_replicas_are_distinct_consecutive_ring_segments(self, params):
        placement = make_map(**params)
        ring = placement.nodes
        for entity, slot, replicas in placement.slot_items():
            assert len(replicas) == params["rf"]
            assert len(set(replicas)) == len(replicas)
            assert replicas[0] == placement.homes(entity)[slot]
            first = ring.index(replicas[0])
            expected = tuple(
                ring[(first + k) % len(ring)] for k in range(params["rf"])
            )
            assert replicas == expected

    @MAPS
    @given(map_params())
    def test_rf1_collapses_to_the_single_owner_map(self, params):
        """At rf=1 the replica list of every slot is exactly its home —
        the historic ``entity_homes`` assignment — and the same seed
        produces the same homes at every replication factor (the start
        draws are shared)."""
        single = make_map(**{**params, "rf": 1})
        replicated = make_map(**params)
        for entity in range(params["entities"]):
            homes = single.homes(entity)
            assert homes == replicated.homes(entity)
            for slot in range(params["span"]):
                assert single.replicas(entity, slot) == (homes[slot],)

    @MAPS
    @given(map_params())
    def test_fanout_groups_each_copy_under_its_node(self, params):
        """An entity's fan-out lists each replica node once, in first
        appearance over the slots in order, with the slots it holds."""
        placement = make_map(**params)
        for entity in range(params["entities"]):
            expected = {}
            for slot in range(params["span"]):
                for node in placement.replicas(entity, slot):
                    expected.setdefault(node, []).append(slot)
            assert placement.fanout(entity) == tuple(
                (node, tuple(slots)) for node, slots in expected.items())

    @MAPS
    @given(map_params())
    def test_load_accounts_for_every_copy(self, params):
        placement = make_map(**params)
        load = placement.load_per_node()
        total = params["entities"] * params["span"] * params["rf"]
        assert sum(load.values()) == total

    def test_balance_on_a_large_fixed_case(self):
        """4000 entities x 2 slots x 3 copies over 8 nodes: random ring
        starts keep per-node load within a few percent of the mean.
        Fixed seed, so this is a deterministic regression bound, not a
        flaky statistical assertion."""
        placement = make_map(n_nodes=8, entities=4000, span=2, rf=3,
                             seed=123)
        load = placement.load_per_node()
        mean = sum(load.values()) / len(load)
        assert mean == 3000.0
        assert max(load.values()) / min(load.values()) < 1.15


class TestValidation:
    def test_rf_must_not_exceed_node_count(self):
        with pytest.raises(SimulationError, match="replication_factor"):
            make_map(n_nodes=3, entities=5, span=2, rf=4, seed=0)

    def test_rf_must_be_positive(self):
        with pytest.raises(SimulationError, match="replication_factor"):
            make_map(n_nodes=3, entities=5, span=2, rf=0, seed=0)

    def test_workload_config_rejects_oversized_rf(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="use span to"):
            RecordingConfig(nodes=["a", "b"], entities=4,
                            replication_factor=3)

    def test_refresh_delay_must_be_positive(self):
        with pytest.raises(SimulationError, match="refresh_delay"):
            PlacementState(refresh_delay=0.0)

    def test_a_subtransaction_skipped_twice_for_one_node_is_refused(self):
        """The ledger holds one entry per skipped subtransaction, so a
        second skip of the same one would replace the first's writes."""
        placement = PlacementState()
        ops = [WriteOp("x", Increment(1))]
        placement.record_skip("q", "t", "t.1", 1, ops, compensable=False)
        placement.record_skip("p", "t", "t.1", 1, ops, compensable=False)
        with pytest.raises(SimulationError, match="skipped twice"):
            placement.record_skip("q", "t", "t.1", 1, ops,
                                  compensable=False)


class TestSpecDigestCompatibility:
    def test_rf1_digest_ignores_the_replication_axes(self):
        """Unreplicated specs must keep their pre-replication content
        addresses, so cached fleet results stay valid: at rf=1 neither
        new field participates in the digest."""
        base = ExperimentSpec(protocol="3v")
        explicit = ExperimentSpec(protocol="3v", replication_factor=1,
                                  refresh_delay=2.0)
        odd_delay = ExperimentSpec(protocol="3v", replication_factor=1,
                                   refresh_delay=99.0)
        assert base.digest() == explicit.digest() == odd_delay.digest()

    def test_replicated_digests_differ(self):
        base = ExperimentSpec(protocol="3v")
        rf2 = ExperimentSpec(protocol="3v", replication_factor=2)
        rf2_slow = ExperimentSpec(protocol="3v", replication_factor=2,
                                  refresh_delay=9.0)
        assert len({base.digest(), rf2.digest(), rf2_slow.digest()}) == 3


def _replica_chains(result):
    """Full (version, value) chain of every record copy, by replica."""
    system = result.system
    for entity, slot, key, replicas in result.workload.replica_groups():
        chains = {}
        for node_id in replicas:
            store = system.node(node_id).store
            chains[node_id] = tuple(
                (version, store.get_exact(key, version))
                for version in store.versions(key)
            )
        yield entity, slot, key, chains


class TestRefreshConvergence:
    @pytest.mark.parametrize("protocol", ["3v", "nocoord", "2pc"])
    @pytest.mark.parametrize("rf", [2, 3])
    def test_refreshed_copies_equal_their_sources(self, protocol, rf):
        """Under a storm that crashes every node once, all replica chains
        — balance counters and observation logs alike — end byte-equal.
        Every node crashes and recovers, so the refresh sources are
        themselves recovered stores, not pristine ones."""
        result = run_recording_experiment(
            protocol, nodes=4, duration=15, entities=30,
            replication_factor=rf, refresh_delay=1.5,
            drop_rate=0.05, dup_rate=0.02, crash_count=1, fault_seed=7,
            seed=3,
        )
        system = result.system
        assert system.recovery_count == system.crash_count == 4
        for entity, slot, key, chains in _replica_chains(result):
            distinct = set(chains.values())
            assert len(distinct) == 1, (
                f"entity {entity} slot {slot} ({key!r}) diverged: {chains}"
            )
        counters = system.counters()
        assert counters["unreadable_reads_served"] == 0
        refreshes = (counters["refreshes_completed"]
                     + counters["self_refreshes"])
        assert refreshes >= system.recovery_count
        if protocol != "2pc":
            # 2PC's engine blocks on down replicas instead of skipping,
            # so only the write-all-available protocols ledger anything.
            assert counters["writes_skipped"] > 0
            assert (counters["refresh_ops_applied"]
                    == system.placement.ops_ledgered
                    - system.placement.ops_cancelled)

    def test_replicated_runs_are_repeatable(self):
        runs = [
            run_recording_experiment(
                "3v", nodes=4, duration=12, entities=20,
                replication_factor=3, refresh_delay=1.5,
                drop_rate=0.05, dup_rate=0.02, crash_count=1,
                fault_seed=7, seed=5,
            )
            for _ in range(2)
        ]
        first, second = (run.system for run in runs)
        assert first.counters() == second.counters()
        assert ((first.placement.ops_ledgered, first.placement.ops_cancelled)
                == (second.placement.ops_ledgered,
                    second.placement.ops_cancelled))

    def test_compensation_cancels_ledgered_originals(self):
        """Aborting transactions under replication: a compensator that
        overtakes a skipped original annihilates the ledger entry, and
        the replicas still converge."""
        result = run_recording_experiment(
            "3v", nodes=4, duration=15, entities=20,
            abort_fraction=0.3, replication_factor=2, refresh_delay=1.5,
            drop_rate=0.03, dup_rate=0.02, crash_count=1, fault_seed=11,
            seed=9,
        )
        for entity, slot, key, chains in _replica_chains(result):
            assert len(set(chains.values())) == 1

    def test_rf1_runs_are_bit_identical_to_unreplicated_runs(self):
        """Passing ``replication_factor=1`` explicitly attaches nothing
        and perturbs nothing: event counts, transaction counts, and every
        store chain match a run that never mentioned replication."""
        baseline = run_recording_experiment("3v", nodes=3, duration=8,
                                            entities=15, seed=2)
        explicit = run_recording_experiment("3v", nodes=3, duration=8,
                                            entities=15, seed=2,
                                            replication_factor=1,
                                            refresh_delay=77.0)
        assert explicit.system.placement is None
        assert (baseline.system.sim.scheduled_count
                == explicit.system.sim.scheduled_count)
        assert (baseline.system.history.total_txns
                == explicit.system.history.total_txns)
        assert (baseline.workload.entity_homes
                == explicit.workload.entity_homes)
        for node_id in ("n00", "n01", "n02"):
            base_store = baseline.system.node(node_id).store
            other_store = explicit.system.node(node_id).store
            for key in base_store.keys():
                assert (base_store.versions(key)
                        == other_store.versions(key))
                for version in base_store.versions(key):
                    assert (base_store.get_exact(key, version)
                            == other_store.get_exact(key, version))


def replicated_write(name, amount):
    """A commuting increment fanned out to both replicas of ``x``."""
    return TransactionSpec(
        name=name,
        root=SubtxnSpec(
            node="p", ops=[WriteOp("x", Increment(amount))],
            children=[SubtxnSpec(node="q",
                                 ops=[WriteOp("x", Increment(amount))])],
        ),
    )


class TestRecoveryReadability:
    def test_unrefreshed_replica_never_serves_a_read(self):
        """Crash a replica during an advancement wave, keep writing (the
        skips land in the ledger), recover it, and immediately aim a
        pinned read at it: the read must gate on the refresh and observe
        the fully refreshed value — never the stale recovered state."""
        placement = PlacementState(refresh_delay=2.0)
        system = ThreeVSystem(["p", "q"], seed=1, faults=FaultPlan(),
                              poll_interval=0.25, placement=placement)
        system.load("p", "x", 0)
        system.load("q", "x", 0)
        for i in range(4):
            system.submit_at(float(i), replicated_write(f"pre{i}", 1 << i))
        system.sim.schedule(5.0, system.advance_versions)
        # Crash q mid-advancement; the next writes skip its copy.
        system.sim.schedule(5.5, system.crash, "q")
        for i in range(4, 8):
            system.submit_at(6.0 + (i - 4), replicated_write(f"down{i}",
                                                             1 << i))
        system.sim.schedule(12.0, system.recover, "q")

        observed = {}
        mark_readable = placement.refresh._mark_readable

        def recording_mark_readable(node_id):
            observed["refreshed_at"] = system.sim.now
            mark_readable(node_id)

        placement.refresh._mark_readable = recording_mark_readable

        def submit_probe():
            # q is back up but must still be unrefreshed: the refresh
            # request itself waits out refresh_delay.
            assert "q" in placement.refresh.unrefreshed
            observed["submitted_at"] = system.sim.now
            system.submit(TransactionSpec(
                name="probe",
                root=SubtxnSpec(node="q", ops=[ReadOp("x")]),
            ))

        system.sim.schedule(12.1, submit_probe)
        system.run(until=30.0)
        system.run_until_quiet(limit=1000.0)
        # A second advancement wave after everything drained, so a late
        # read's version covers the writes q only ever received via the
        # ledger.
        system.advance_versions()
        system.run_until_quiet(limit=1000.0)
        system.submit(TransactionSpec(
            name="late-probe",
            root=SubtxnSpec(node="q", ops=[ReadOp("x")]),
        ))
        system.run_until_quiet(limit=1000.0)

        counters = system.counters()
        assert counters["writes_skipped"] == 4
        assert counters["refreshes_completed"] == 1
        assert counters["reads_gated"] >= 1
        assert counters["unreadable_reads_served"] == 0
        # The gated probe executed only once the refresh marked q
        # readable — the recovered-but-unrefreshed store never
        # served it.
        (read_event,) = [e for e in system.history.read_events
                         if e.txn == "probe"]
        assert read_event.time > observed["submitted_at"]
        assert read_event.time >= observed["refreshed_at"]
        # The late probe reads q at a version covering the down-window
        # writes and sees all eight increments — four of which reached q
        # exclusively through the refresh transfer.
        (late_event,) = [e for e in system.history.read_events
                         if e.txn == "late-probe"]
        assert late_event.node == "q"
        assert late_event.value == sum(1 << i for i in range(8))
        # And q's whole chain is byte-equal to p's, ledgered writes
        # included.
        p_store, q_store = system.node("p").store, system.node("q").store
        assert p_store.versions("x") == q_store.versions("x")
        for version in p_store.versions("x"):
            assert (p_store.get_exact("x", version)
                    == q_store.get_exact("x", version))
