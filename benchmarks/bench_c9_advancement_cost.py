"""C9 — the cost profile of version advancement itself.

Advancement never delays user transactions (C2), but its *duration*
sets the floor on how fresh reads can be (C3): a version only becomes
readable after phase 2 has proven it quiescent.  This benchmark breaks
an advancement's wall time into its phases and sweeps the two knobs that
govern it — the coordinator's counter-poll interval and the network
latency — under a fixed user load.

Expected shape: phase 2 dominates; its duration scales with the poll
interval (detection granularity) plus a few network round trips per
poll, and with the tail of in-flight transaction lifetimes.
"""

from conftest import save_table

from repro.analysis import Table
from repro.core import PeriodicPolicy, ThreeVSystem
from repro.net import UniformLatency
from repro.sim import LogNormal, RngRegistry
from repro.txn import History
from repro.workloads import RecordingConfig, RecordingWorkload
from repro.workloads.arrivals import drive, poisson_arrivals

DURATION = 120.0


def run(poll_interval: float, latency: float):
    node_ids = [f"n{index}" for index in range(6)]
    system = ThreeVSystem(
        node_ids, seed=91,
        latency=UniformLatency(LogNormal(mean=latency, sigma=0.8)),
        poll_interval=poll_interval, policy=PeriodicPolicy(20.0),
        history=History(events=()),
    )
    config = RecordingConfig(nodes=node_ids, entities=60, span=2,
                             amount_mode="money")
    workload = RecordingWorkload(config, RngRegistry(92))
    workload.install(system)
    arrivals = RngRegistry(93)
    drive(system, poisson_arrivals(arrivals, "u", 8.0, DURATION),
          workload.draw_recording, workload.build_recording)
    drive(system, poisson_arrivals(arrivals, "r", 4.0, DURATION),
          workload.draw_inquiry, workload.build_inquiry)
    system.run(until=DURATION)
    system.stop_policy()
    system.run_until_quiet()
    return system


def phase_breakdown(system):
    records = [
        record for record in system.history.advancements
        if record.gc_done is not None
    ]
    count = len(records)
    if not count:
        return 0, 0.0, 0.0, 0.0, 0.0, 0.0
    phase1 = sum(r.phase1_done - r.started for r in records) / count
    phase2 = sum(r.phase2_done - r.phase1_done for r in records) / count
    phase3 = sum(r.phase3_done - r.phase2_done for r in records) / count
    phase4 = sum(r.gc_done - r.phase3_done for r in records) / count
    polls = sum(r.counter_polls for r in records) / count
    return count, phase1, phase2, phase3, phase4, polls


def test_c9_advancement_cost(benchmark):
    benchmark.pedantic(lambda: run(0.5, 1.0), rounds=1, iterations=1)
    table = Table(
        "C9: Advancement phase durations vs poll interval and latency "
        "(lognormal tails, mean over completed runs)",
        ["poll interval", "mean hop latency", "runs", "mean polls",
         "phase 1 (switch vu)", "phase 2 (quiesce)",
         "phase 3 (switch vr)", "phase 4 (drain+GC)", "total"],
        precision=2,
    )
    totals = {}
    for poll in (0.1, 0.5, 2.0):
        for latency in (0.5, 2.0):
            system = run(poll, latency)
            count, p1, p2, p3, p4, polls = phase_breakdown(system)
            total = p1 + p2 + p3 + p4
            totals[(poll, latency)] = total
            table.add(poll, latency, count, polls, p1, p2, p3, p4, total)
    save_table("c9_advancement_cost", table)

    # Latency dominates the staleness floor.
    assert totals[(0.1, 2.0)] > totals[(0.1, 0.5)]
    # Everything completed: at least two advancements at every setting.
    for (poll, latency), total in totals.items():
        assert total > 0.0
