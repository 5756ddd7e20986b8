"""Tests for the experiment runner (system factory + workload driver)."""

import pytest

from repro.baselines import ManualVersioningSystem, NoCoordSystem, TwoPCSystem
from repro.core import ThreeVSystem
from repro.errors import ReproError
from repro.workloads import build_system, run_recording_experiment

FAST = dict(nodes=3, duration=8.0, update_rate=3.0, inquiry_rate=2.0,
            audit_rate=0.0, entities=10, span=2, seed=5)


class TestBuildSystem:
    def test_protocol_dispatch(self):
        nodes = ["a", "b"]
        assert isinstance(build_system("3v", nodes), ThreeVSystem)
        assert isinstance(build_system("nocoord", nodes), NoCoordSystem)
        assert isinstance(build_system("2pc", nodes), TwoPCSystem)
        manual = build_system("manual", nodes)
        assert isinstance(manual, ManualVersioningSystem)
        assert not manual.synchronous
        sync = build_system("manual-sync", nodes)
        assert sync.synchronous

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ReproError):
            build_system("blockchain", ["a"])

    def test_nc3v_enabled_on_demand(self):
        system = build_system("3v", ["a", "b"], allow_noncommuting=True)
        assert system.config.enable_locking
        assert all(node.nc3v is not None for node in system.nodes.values())


class TestRunnerDeterminism:
    def test_same_workload_across_protocols(self):
        """Every protocol must receive the identical transaction stream
        for a given seed (paired comparison)."""
        a = run_recording_experiment("3v", **FAST)
        b = run_recording_experiment("nocoord", **FAST)
        assert a.submitted == b.submitted
        assert set(a.history.txns) == set(b.history.txns)
        submit_a = {n: r.submit_time for n, r in a.history.txns.items()}
        submit_b = {n: r.submit_time for n, r in b.history.txns.items()}
        assert submit_a == submit_b

    def test_span_clamped_to_node_count(self):
        result = run_recording_experiment(
            "3v", **dict(FAST, nodes=2, span=5)
        )
        assert all(
            len(nodes) == 2
            for nodes in result.workload.entity_homes.values()
        )

    def test_result_exposes_history_and_network(self):
        result = run_recording_experiment("3v", **FAST)
        assert result.history is result.system.history
        assert result.network.stats.total_sent > 0
        assert result.protocol == "3v"
        assert result.duration == FAST["duration"]

    def test_abort_fraction_flows_through(self):
        result = run_recording_experiment(
            "3v", abort_fraction=0.5, **FAST
        )
        assert len(result.history.aborted_txns()) > 0

    def test_drain_limit_enforced(self):
        from repro.errors import ProtocolError
        from repro.net import constant_latency

        with pytest.raises(ProtocolError):
            run_recording_experiment(
                "3v", latency=constant_latency(10_000.0), drain_limit=50.0,
                **FAST,
            )
