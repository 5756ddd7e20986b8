"""C4 — correctness: fractured reads per system.

Uses the bitmask oracle: every recording transaction deposits a distinct
power of two on every node of one entity, so an inquiry's per-node values
decompose exactly into the set of transactions each node reflected.  Any
divergence is a fractured read (a customer seeing "partial charges from a
single visit").  3V must also pass the strict Theorem 4.1 snapshot check.

Manual versioning is swept over its safety delay to show the paper's
point that the delay merely trades staleness for a *lower chance* of
inconsistency — it never reaches zero until the delay is conservatively
huge.
"""

import os

from conftest import save_table

from repro.analysis import Table, audit, is_conflict_serializable
from repro.net import UniformLatency
from repro.sim import LogNormal
from repro.workloads import run_recording_experiment

SETTINGS = dict(
    nodes=6, duration=90.0, update_rate=8.0, inquiry_rate=6.0,
    audit_rate=0.4, entities=15, span=3, seed=41, amount_mode="bitmask",
    latency=UniformLatency(LogNormal(mean=1.0, sigma=1.0)),
)


def report_for(protocol: str, check_snapshots=False, **kwargs):
    # The serialization graph reads write events, which a run keeps only
    # for the trace it exports: here, to nowhere.
    result = run_recording_experiment(protocol, **SETTINGS,
                                      trace_path=os.devnull, **kwargs)
    report = audit(result.history, result.workload,
                   check_snapshots=check_snapshots)
    serializable = is_conflict_serializable(result.history)
    return report, serializable


def test_c4_anomalies(benchmark):
    benchmark.pedantic(lambda: report_for("nocoord"), rounds=2, iterations=1)
    table = Table(
        "C4: Fractured reads under identical load "
        "(bitmask oracle + serialization graph)",
        ["system", "reads checked", "fractured", "fractured %",
         "snapshot violations", "conflict-serializable"],
        precision=2,
    )
    rows = {}
    serializable_by = {}
    three_v, three_v_sr = report_for("3v", check_snapshots=True)
    rows["3v"] = three_v
    serializable_by["3v"] = three_v_sr
    table.add("3v", three_v.reads_checked, three_v.fractured_reads,
              100 * three_v.fractured_rate, three_v.snapshot_mismatches,
              three_v_sr)
    for protocol in ("nocoord", "2pc"):
        report, serializable = report_for(protocol)
        rows[protocol] = report
        serializable_by[protocol] = serializable
        table.add(protocol, report.reads_checked, report.fractured_reads,
                  100 * report.fractured_rate, "-", serializable)
    for delay in (0.5, 2.0, 8.0):
        report, serializable = report_for("manual", advancement_period=10.0,
                                          safety_delay=delay)
        rows[f"manual d={delay}"] = report
        table.add(f"manual (delay {delay}s)", report.reads_checked,
                  report.fractured_reads, 100 * report.fractured_rate, "-",
                  serializable)
    save_table("c4_anomalies", table)

    # The independent serialization-graph instrument agrees.
    assert serializable_by["3v"]
    assert serializable_by["2pc"]
    assert not serializable_by["nocoord"]

    assert rows["3v"].clean
    assert rows["2pc"].fractured_reads == 0
    assert rows["nocoord"].fractured_reads > 0
    # Bigger safety delay helps but never reaches zero: the version-fork
    # race is delay-independent (see bench_c3_staleness).
    assert (
        rows["manual d=0.5"].fractured_reads
        > rows["manual d=8.0"].fractured_reads
    )
    assert rows["manual d=8.0"].fractured_reads > 0
