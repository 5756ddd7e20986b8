"""C7 — ablation: how quiescence is detected during version advancement.

Three detectors behind the same coordinator interface:

* ``two-wave`` — the paper's sound asynchronous read (completions wave
  strictly before requests wave; Mattern's four-counter argument);
* ``interleaved`` — single combined read; a request issued and completed
  between the waves can mask an older in-flight subtransaction;
* ``active-poll`` — Section 2.2's strawman: "is any transaction running
  on version v right now?", blind to in-transit children.

Run under the paper's literal immediate-completion semantics on a
tail-heavy network, each detector advances versions repeatedly under
load; the bitmask oracle scores the damage, and the deterministic
straggler scenario from the test suite quantifies how early the unsound
detectors fire.
"""

from conftest import save_table

from repro.analysis import Table, audit
from repro.core import NodeConfig
from repro.net import UniformLatency
from repro.sim import LogNormal, RngRegistry
from repro.workloads import RecordingConfig, RecordingWorkload
from repro.workloads.arrivals import drive, poisson_arrivals
from repro.core import PeriodicPolicy, ThreeVSystem

DURATION = 60.0


def run(detector: str, seed: int):
    node_ids = [f"n{index}" for index in range(6)]
    system = ThreeVSystem(
        node_ids,
        seed=seed,
        latency=UniformLatency(LogNormal(mean=1.0, sigma=1.5)),
        poll_interval=0.5,
        detector=detector,
        node_config=NodeConfig(completion="immediate"),
        policy=PeriodicPolicy(8.0),
    )
    config = RecordingConfig(nodes=node_ids, entities=15, span=3,
                             amount_mode="bitmask")
    workload = RecordingWorkload(config, RngRegistry(seed + 1))
    workload.install(system)
    arrivals = RngRegistry(seed + 2)
    drive(system, poisson_arrivals(arrivals, "u", 8.0, DURATION),
          workload.draw_recording, workload.build_recording)
    drive(system, poisson_arrivals(arrivals, "r", 6.0, DURATION),
          workload.draw_inquiry, workload.build_inquiry)
    system.run(until=DURATION)
    system.stop_policy()
    system.run_until_quiet(limit=1_000_000.0)
    return system, workload


def test_c7_detector_ablation(benchmark):
    benchmark.pedantic(lambda: run("two-wave", 71), rounds=1, iterations=1)
    table = Table(
        "C7: Quiescence detector ablation (immediate completion, "
        "heavy-tailed latency, 3 seeds)",
        ["detector", "advancements", "mean phase-2 polls",
         "snapshot violations", "fractured reads"],
        precision=2,
    )
    totals = {}
    for detector in ("two-wave", "interleaved", "active-poll"):
        advancements = 0
        polls = []
        violations = 0
        fractured = 0
        for seed in (71, 72, 73):
            system, workload = run(detector, seed)
            advancements += system.coordinator.completed_runs
            polls.extend(
                record.counter_polls
                for record in system.history.advancements
                if record.gc_done is not None
            )
            report = audit(system.history, workload, check_snapshots=True)
            violations += report.snapshot_mismatches
            fractured += report.fractured_reads
        totals[detector] = (violations, fractured)
        table.add(
            detector, advancements,
            sum(polls) / len(polls) if polls else 0.0,
            violations, fractured,
        )
    save_table("c7_termination", table)

    # The sound detector never violates Theorem 4.1.
    assert totals["two-wave"] == (0, 0)
    # The naive strawman corrupts reads (the paper's Section 2.2 warning).
    assert sum(totals["active-poll"]) > 0
