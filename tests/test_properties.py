"""Property-based tests: the 3V protocol under randomized adversity.

Hypothesis generates cluster sizes, latency regimes, transaction mixes,
abort placements, and advancement timings; every generated execution must
satisfy the paper's invariants (Section 4.4), Theorem 4.1 (snapshot
consistency, via the bitmask oracle), and Theorem 4.2 (zero remote waits).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import audit, max_remote_wait
from repro.core import InvariantMonitor, ThreeVSystem, check_all
from repro.net import UniformLatency
from repro.sim import RngRegistry, Uniform
from repro.storage import Increment
from repro.txn import ReadOp, SubtxnSpec, TransactionSpec, WriteOp
from repro.workloads import RecordingConfig, RecordingWorkload
from repro.workloads.arrivals import drive, poisson_arrivals

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def cluster_params(draw):
    nodes = draw(st.integers(min_value=2, max_value=6))
    return {
        "nodes": nodes,
        "span": draw(st.integers(min_value=1, max_value=nodes)),
        "entities": draw(st.integers(min_value=2, max_value=10)),
        "seed": draw(st.integers(min_value=0, max_value=10_000)),
        "latency_low": draw(st.floats(min_value=0.05, max_value=1.0)),
        "latency_spread": draw(st.floats(min_value=0.0, max_value=4.0)),
        "update_rate": draw(st.floats(min_value=0.5, max_value=8.0)),
        "inquiry_rate": draw(st.floats(min_value=0.5, max_value=4.0)),
        "advancements": draw(st.integers(min_value=0, max_value=3)),
        "abort_fraction": draw(st.sampled_from([0.0, 0.0, 0.15])),
    }


def run_randomized(params, duration=15.0, completion="hierarchical"):
    from repro.core import NodeConfig

    node_ids = [f"n{i}" for i in range(params["nodes"])]
    latency = UniformLatency(
        Uniform(params["latency_low"],
                params["latency_low"] + params["latency_spread"])
    )
    system = ThreeVSystem(node_ids, seed=params["seed"], latency=latency,
                          poll_interval=0.5,
                          node_config=NodeConfig(completion=completion))
    config = RecordingConfig(
        nodes=node_ids,
        entities=params["entities"],
        span=params["span"],
        amount_mode="bitmask",
        abort_fraction=params["abort_fraction"],
    )
    workload = RecordingWorkload(config, RngRegistry(params["seed"] + 1))
    workload.install(system)
    arrivals = RngRegistry(params["seed"] + 2)
    drive(system,
          poisson_arrivals(arrivals, "a.upd", params["update_rate"], duration),
          workload.draw_recording, workload.build_recording)
    drive(system,
          poisson_arrivals(arrivals, "a.inq", params["inquiry_rate"], duration),
          workload.draw_inquiry, workload.build_inquiry)
    # Advancements at random times inside the run.
    for k in range(params["advancements"]):
        at = duration * (k + 1) / (params["advancements"] + 1)
        system.sim.schedule(at, _try_advance, system)
    monitor = InvariantMonitor(system, every=0.5)
    system.run(until=duration)
    monitor.stop()
    system.run_until_quiet(limit=duration + 10_000)
    return system, workload


def _try_advance(system):
    from repro.errors import AdvancementInProgress

    try:
        system.advance_versions()
    except AdvancementInProgress:
        pass


class TestRandomized3V:
    @SLOW
    @given(cluster_params())
    def test_snapshot_consistency_and_invariants(self, params):
        system, workload = run_randomized(params)
        check_all(system)
        report = audit(system.history, workload, check_snapshots=True)
        assert report.clean, report.violations[:3]

    @SLOW
    @given(cluster_params())
    def test_theorem_4_2_zero_remote_waits(self, params):
        system, _workload = run_randomized(params)
        assert max_remote_wait(system.history) == 0.0

    @SLOW
    @given(cluster_params())
    def test_three_version_bound(self, params):
        system, _workload = run_randomized(params)
        for node in system.nodes.values():
            assert node.store.max_live_versions <= 3

    @SLOW
    @given(cluster_params())
    def test_immediate_completion_also_serializable(self, params):
        """The literal Section 4.1 semantics with the sound two-wave
        detector: still snapshot-consistent under randomized adversity."""
        system, workload = run_randomized(params, completion="immediate")
        report = audit(system.history, workload, check_snapshots=True)
        assert report.clean, report.violations[:3]
        assert max_remote_wait(system.history) == 0.0

    @SLOW
    @given(cluster_params())
    def test_counters_always_converge(self, params):
        """After draining, one more advancement always completes: the
        termination detector never hangs (liveness)."""
        system, _workload = run_randomized(params)
        before = system.read_version
        system.advance_versions()
        system.run_until_quiet(limit=10_000_000)
        assert system.read_version == before + 1


@st.composite
def txn_trees(draw, nodes):
    """A random transaction tree over the given nodes (depth <= 3)."""

    def subtree(depth, path):
        node = draw(st.sampled_from(nodes))
        n_ops = draw(st.integers(min_value=0, max_value=3))
        ops = []
        for k in range(n_ops):
            key = f"k{draw(st.integers(min_value=0, max_value=4))}"
            if draw(st.booleans()):
                ops.append(WriteOp(key, Increment(draw(
                    st.integers(min_value=-5, max_value=5)))))
            else:
                ops.append(ReadOp(key))
        children = []
        if depth < 3:
            for c in range(draw(st.integers(min_value=0, max_value=2))):
                children.append(subtree(depth + 1, f"{path}.{c}"))
        return SubtxnSpec(node=node, ops=ops, children=children)

    return subtree(1, "r")


class TestRandomTrees:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_arbitrary_trees_execute_and_converge(self, data):
        """Any well-formed tree (multi-visit, empty subtxns, deep chains)
        runs to global completion and the next advancement terminates."""
        node_ids = ["a", "b", "c"]
        system = ThreeVSystem(node_ids, seed=data.draw(
            st.integers(min_value=0, max_value=999)))
        for nid in node_ids:
            for k in range(5):
                system.load(nid, f"k{k}", 0)
        trees = data.draw(st.lists(txn_trees(node_ids), min_size=1,
                                   max_size=5))
        has_write = False
        for i, tree in enumerate(trees):
            spec = TransactionSpec(name=f"t{i}", root=tree)
            has_write = has_write or not spec.is_read_only
            system.submit(spec)
        system.run_until_quiet()
        for i in range(len(trees)):
            record = system.history.txn(f"t{i}")
            assert record.global_complete_time is not None
        system.advance_versions()
        system.run_until_quiet()
        assert system.read_version == 1
        check_all(system)
