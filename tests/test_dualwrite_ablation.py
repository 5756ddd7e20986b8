"""Ablation of the dual-write rule (Section 4.1 step 4).

The paper resolves the straggler dilemma — "iq cannot execute against
version 1 on q [alone] ... version 2 of the database on this node would
not reflect the result of iq" — by updating every version >= V(T).
Disabling that single rule must reintroduce the inconsistency, first in
the deterministic Table 1 scenario and then as snapshot violations under
randomized straggler-heavy load.
"""

import pytest

from repro.analysis import audit
from repro.core import NodeConfig, ThreeVSystem
from repro.net import UniformLatency
from repro.sim import LogNormal, RngRegistry
from repro.workloads import RecordingConfig, RecordingWorkload
from repro.workloads.arrivals import drive, poisson_arrivals
from repro.workloads.paper_example import (
    DELTAS,
    INITIAL,
    SCHEDULE,
    read_x,
    read_y,
    scripted_latencies,
    transaction_i,
    transaction_j,
)


def paper_scenario(dual_write: bool):
    """The Table 1 scenario on a system with/without the rule."""
    system = ThreeVSystem(
        ["p", "q", "s"], seed=0, latency=scripted_latencies(),
        poll_interval=0.5,
        node_config=NodeConfig(dual_write=dual_write),
    )
    for key in ("A", "B"):
        system.load("p", key, INITIAL[key])
    for key in ("D", "E"):
        system.load("q", key, INITIAL[key])
    system.load("s", "F", INITIAL["F"])
    system.submit_at(SCHEDULE["i"], transaction_i())
    system.submit_at(SCHEDULE["x"], read_x())
    system.sim.schedule(SCHEDULE["advancement"], system.advance_versions)
    system.submit_at(SCHEDULE["j"], transaction_j())
    system.submit_at(SCHEDULE["y"], read_y())
    system.run_until_quiet()
    return system


class TestDeterministicScenario:
    def test_with_rule_version_2_of_d_includes_straggler(self):
        system = paper_scenario(dual_write=True)
        d2 = system.node("q").store.get_exact("D", 2)
        assert d2 == INITIAL["D"] + DELTAS[("iq", "D")] + DELTAS[("j", "D")]

    def test_without_rule_version_2_of_d_is_short(self):
        """Exactly the inconsistency the paper describes: version 2 at q
        reflects j but not iq, while version 2 at p reflects i's root —
        the transaction is torn across versions forever."""
        system = paper_scenario(dual_write=False)
        d2 = system.node("q").store.get_exact("D", 2)
        assert d2 == INITIAL["D"] + DELTAS[("j", "D")]  # missing iq!
        # Version 1 is still fine (the straggler wrote it) ...
        d1 = system.node("q").store.get_exact("D", 1)
        assert d1 == INITIAL["D"] + DELTAS[("iq", "D")]
        # ... so the damage is silent until version 2 becomes readable.


class TestRandomizedLoad:
    def run(self, dual_write: bool, seed=33):
        node_ids = [f"n{i}" for i in range(4)]
        system = ThreeVSystem(
            node_ids, seed=seed,
            latency=UniformLatency(LogNormal(mean=1.0, sigma=1.2)),
            poll_interval=0.5,
            node_config=NodeConfig(dual_write=dual_write),
        )
        config = RecordingConfig(nodes=node_ids, entities=8, span=3,
                                 amount_mode="bitmask")
        workload = RecordingWorkload(config, RngRegistry(seed + 1))
        workload.install(system)
        arrivals = RngRegistry(seed + 2)
        drive(system, poisson_arrivals(arrivals, "u", 6.0, 40.0),
              workload.draw_recording, workload.build_recording)
        drive(system, poisson_arrivals(arrivals, "r", 5.0, 40.0),
              workload.draw_inquiry, workload.build_inquiry)
        for at in (8.0, 20.0, 32.0):
            system.sim.schedule(at, self._try_advance, system)
        system.run(until=40.0)
        system.run_until_quiet(limit=10_000_000)
        # Make the later versions readable (damaged copies included),
        # then look at them: the missing straggler contributions only
        # become observable once their version is served to readers.
        for _ in range(2):
            system.advance_versions()
            system.run_until_quiet(limit=10_000_000)
        for index in range(200, 240):
            system.submit(workload.make_inquiry(index))
        system.run_until_quiet(limit=10_000_000)
        return audit(system.history, workload, check_snapshots=True)

    @staticmethod
    def _try_advance(system):
        from repro.errors import AdvancementInProgress

        try:
            system.advance_versions()
        except AdvancementInProgress:
            pass

    def test_rule_on_is_clean(self):
        report = self.run(dual_write=True)
        assert report.clean, report.violations[:3]

    def test_rule_off_violates_snapshots(self):
        report = self.run(dual_write=False)
        assert report.snapshot_mismatches > 0
