"""Property-based tests for NC3V under randomized mixed traffic.

The NC3V path (locks + gate + 2PC + rollback) is the most intricate part
of the implementation; these tests subject it to randomized latencies,
mixes, and advancement timing, and require: atomic visibility of every
committed transaction (including corrections), liveness (everything
terminates, counters converge), and zero lock traffic for read-only
transactions.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import atomic_visibility_violations
from repro.core import ThreeVSystem, check_all
from repro.net import UniformLatency
from repro.sim import RngRegistry, Uniform
from repro.workloads import RecordingConfig, RecordingWorkload
from repro.workloads.arrivals import drive, poisson_arrivals

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def mixed_params(draw):
    nodes = draw(st.integers(min_value=2, max_value=5))
    return {
        "nodes": nodes,
        "span": draw(st.integers(min_value=1, max_value=nodes)),
        "entities": draw(st.integers(min_value=2, max_value=8)),
        "seed": draw(st.integers(min_value=0, max_value=5000)),
        "latency_low": draw(st.floats(min_value=0.1, max_value=1.0)),
        "latency_spread": draw(st.floats(min_value=0.0, max_value=2.0)),
        "update_rate": draw(st.floats(min_value=1.0, max_value=5.0)),
        "correction_rate": draw(st.floats(min_value=0.2, max_value=2.0)),
        "inquiry_rate": draw(st.floats(min_value=0.5, max_value=3.0)),
        "advancements": draw(st.integers(min_value=0, max_value=2)),
    }


def run_mixed(params, duration=12.0):
    node_ids = [f"n{i}" for i in range(params["nodes"])]
    system = ThreeVSystem(
        node_ids, seed=params["seed"], allow_noncommuting=True,
        latency=UniformLatency(Uniform(
            params["latency_low"],
            params["latency_low"] + params["latency_spread"],
        )),
        poll_interval=0.5,
    )
    config = RecordingConfig(
        nodes=node_ids, entities=params["entities"], span=params["span"],
        amount_mode="bitmask",
    )
    workload = RecordingWorkload(config, RngRegistry(params["seed"] + 1))
    workload.install(system)
    arrivals = RngRegistry(params["seed"] + 2)
    drive(system,
          poisson_arrivals(arrivals, "u", params["update_rate"], duration),
          workload.draw_recording, workload.build_recording)
    drive(system,
          poisson_arrivals(arrivals, "c", params["correction_rate"], duration),
          workload.draw_correction, workload.build_correction)
    drive(system,
          poisson_arrivals(arrivals, "r", params["inquiry_rate"], duration),
          workload.draw_inquiry, workload.build_inquiry)
    for k in range(params["advancements"]):
        at = duration * (k + 1) / (params["advancements"] + 1)
        system.sim.schedule(at, _try_advance, system)
    system.run(until=duration)
    system.run_until_quiet(limit=duration + 1_000_000)
    return system, workload


def _try_advance(system):
    from repro.errors import AdvancementInProgress

    try:
        system.advance_versions()
    except AdvancementInProgress:
        pass


class TestMixedTrafficProperties:
    @SLOW
    @given(mixed_params())
    def test_atomic_visibility_with_corrections(self, params):
        system, _workload = run_mixed(params)
        violations = atomic_visibility_violations(system.history)
        assert violations == [], violations[:3]

    @SLOW
    @given(mixed_params())
    def test_liveness_everything_terminates(self, params):
        system, _workload = run_mixed(params)
        for record in system.history.txns.values():
            assert record.global_complete_time is not None, record.name
        check_all(system)
        # Counters converge even through NC aborts: one more advancement.
        before = system.read_version
        system.advance_versions()
        system.run_until_quiet(limit=10_000_000)
        assert system.read_version == before + 1

    @SLOW
    @given(mixed_params())
    def test_reads_never_touch_locks(self, params):
        system, _workload = run_mixed(params)
        for record in system.history.committed_txns("read"):
            assert record.waits.get("lock", 0.0) == 0.0
            assert record.remote_wait == 0.0

    @SLOW
    @given(mixed_params())
    def test_version_bound_with_nc_traffic(self, params):
        system, _workload = run_mixed(params)
        for node in system.nodes.values():
            assert node.store.max_live_versions <= 3
