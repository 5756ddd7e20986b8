"""Replication benchmark — the cost of the ``replication_factor`` axis.

Runs the identical fault-free 3V recording workload at rf ∈ {1, 2, 3}
and reports, per cell:

* ``repl_rf{K}_txns_per_sec`` — end-to-end simulation throughput (wall
  clock), tracking the real cost of fanning every write out to K
  replicas;
* ``repl_rf{K}_msg_overhead`` — messages sent relative to the rf=1 cell
  (deterministic ratio: same workload, same seed, only the placement
  differs — this *is* the write-all fan-out amplification);
* ``repl_events_rf{K}`` / ``repl_txns_rf{K}`` / ``repl_messages_rf{K}``
  — determinism counts, bit-stable like every other digest.

The rf=1 cell doubles as a **bit-identity pin**: before contributing any
numbers the suite replays the same spec through
``run_recording_experiment`` *without mentioning replication at all* and
asserts both summaries share one determinism digest — turning the axis
on at its default must perturb nothing.  The digest is exported as
``repl_rf1_digest`` so ``tools/bench.py --check`` also fails if either
path drifts from the committed baseline.

The determinism counts and the digest feed ``BENCH_hotpath.json`` via
:func:`bench_hotpath.run_suite`; the rates are this suite's own table.
Run directly for the replication table::

    PYTHONPATH=src python benchmarks/bench_replication.py [--smoke]
"""

from __future__ import annotations

import typing

from repro.exp import ExperimentSpec
from repro.exp.summary import run_spec
from repro.workloads import run_recording_experiment

FACTORS = (1, 2, 3)

#: Cell sizing per mode.  Fault-free (the chaos harness owns the storm
#: regime; this axis tracks the steady-state replication tax) and
#: ``detail=False`` so the measured work is protocol machinery, not
#: event recording.
CONFIGS: typing.Dict[str, dict] = {
    "full": {
        "nodes": 6,
        "duration": 30.0,
        "rates": dict(update_rate=20.0, inquiry_rate=12.0, audit_rate=1.0),
    },
    "smoke": {
        "nodes": 4,
        "duration": 10.0,
        "rates": dict(update_rate=10.0, inquiry_rate=6.0, audit_rate=0.5),
    },
}


def replication_spec(mode: str, rf: int) -> ExperimentSpec:
    cfg = CONFIGS[mode]
    return ExperimentSpec(
        "3v", nodes=cfg["nodes"], duration=cfg["duration"], **cfg["rates"],
        entities=60, span=2, seed=23, detail=False,
        replication_factor=rf,
    )


def check_rf1_bit_identity(mode: str) -> str:
    """Assert rf=1 ≡ never-mentioned-replication; return the digest."""
    spec = replication_spec(mode, 1)
    explicit = run_spec(spec)
    kwargs = spec.run_kwargs()
    kwargs.pop("replication_factor")
    kwargs.pop("refresh_delay")
    bare = run_recording_experiment(spec.protocol, **kwargs)
    if bare.system.sim.scheduled_count != explicit.sim_events:
        raise AssertionError(
            "replication_factor=1 perturbed the event trace: "
            f"{explicit.sim_events} events vs the unreplicated path's "
            f"{bare.system.sim.scheduled_count}"
        )
    if bare.system.network.stats.total_sent != explicit.messages_total:
        raise AssertionError(
            "replication_factor=1 perturbed message traffic: "
            f"{explicit.messages_total} vs "
            f"{bare.system.network.stats.total_sent}"
        )
    return explicit.determinism_digest()


def run_replication(mode: str = "full") -> typing.Dict[str, typing.Any]:
    """Run the axis; returns ``{"metrics", "determinism", "rows"}``."""
    determinism: typing.Dict[str, typing.Any] = {
        "repl_rf1_digest": check_rf1_bit_identity(mode)
    }
    metrics: typing.Dict[str, float] = {}
    rows = []
    baseline_messages = None
    for rf in FACTORS:
        summary = run_spec(replication_spec(mode, rf))
        if baseline_messages is None:
            baseline_messages = summary.messages_total
        overhead = summary.messages_total / baseline_messages
        metrics[f"repl_rf{rf}_txns_per_sec"] = (
            summary.txn_count / summary.wall_seconds)
        metrics[f"repl_rf{rf}_msg_overhead"] = overhead
        determinism[f"repl_events_rf{rf}"] = summary.sim_events
        determinism[f"repl_txns_rf{rf}"] = summary.txn_count
        determinism[f"repl_messages_rf{rf}"] = summary.messages_total
        rows.append({
            "rf": rf,
            "txns": summary.txn_count,
            "events": summary.sim_events,
            "messages": summary.messages_total,
            "msg_overhead": overhead,
            "wall": summary.wall_seconds,
        })
    return {"mode": mode, "metrics": metrics, "determinism": determinism,
            "rows": rows}


def render_table(result: typing.Dict[str, typing.Any]) -> str:
    header = (f"{'rf':>3}  {'txns':>7}  {'events':>9}  {'messages':>9}  "
              f"{'msg x':>6}  {'wall s':>7}")
    lines = [header, "-" * len(header)]
    for row in result["rows"]:
        lines.append(
            f"{row['rf']:>3}  {row['txns']:>7,}  {row['events']:>9,}  "
            f"{row['messages']:>9,}  {row['msg_overhead']:>6.2f}  "
            f"{row['wall']:>7.2f}"
        )
    lines.append(f"rf=1 bit-identity digest: "
                 f"{result['determinism']['repl_rf1_digest']}")
    return "\n".join(lines)


if __name__ == "__main__":
    import json
    import sys

    chosen = "smoke" if "--smoke" in sys.argv else "full"
    outcome = run_replication(chosen)
    print(render_table(outcome))
    print(json.dumps({"metrics": outcome["metrics"],
                      "determinism": outcome["determinism"]}, indent=2))
