#!/usr/bin/env python3
"""The repository's end-to-end benchmark (see README.md beside this file).

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--out FILE]

One sequential parent process.  Per workload it spawns fresh
interpreters one after another (``child.py``): *timed* children for
``--seconds`` of wall time (at least ``MIN_REPS``), then one *counted*
child that runs the same spec under ``cProfile``.  Timing metrics are
medians over the timed children, each restated at one nominal host speed
by the child's host probe; exact counts, memory and the per-layer ledger
come from the counted child, which never feeds a timing metric.  The
only call into the program is ``repro.exp.run_spec``.

Metric names, units, directions and bounds are read from
``BENCHMARK.json`` at the repository root; this file only knows how to
compute them.  With ``--workload`` the last line of stdout is the
driver's result object: the end-to-end metrics for ``--trace 0``, the
per-layer metrics for ``--trace 1``.  Exit status is non-zero on any
correctness failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
import typing

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from child import LAYERS, host_scale  # noqa: E402  (sibling file)

#: Fewest timed children per workload; ``--smoke`` uses SMOKE_REPS.
MIN_REPS = 3
SMOKE_REPS = 2
SMOKE_DIVISOR = 20.0
CHILD_TIMEOUT_S = 150.0

#: Spec fields beyond the ``ExperimentSpec`` defaults.  Every workload is
#: protocol ``3v`` with ``span=2`` and open-loop seeded Poisson arrivals
#: in *simulated* time, so on the host each is a batch job of fixed size.
#: Only ``duration`` was tuned, to size one timed ``run_spec`` at about one
#: and a half host-seconds; README.md records why each workload exists.
WORKLOAD_SPECS: typing.Dict[str, typing.Dict[str, typing.Any]] = {
    "record_8n": dict(
        nodes=8, update_rate=16.0, inquiry_rate=8.0, audit_rate=0.2,
        entities=200, seed=13, detail=False, duration=480.0),
    "audit_8n": dict(
        nodes=8, update_rate=6.0, inquiry_rate=16.0, audit_rate=2.0,
        entities=200, seed=17, detail=True, amount_mode="bitmask",
        duration=270.0),
    "stream_64n": dict(
        nodes=64, update_rate=16.0, inquiry_rate=8.0, audit_rate=0.2,
        entities=800, seed=31, detail=True, stream=1, zipf=1.1,
        with_observations=0, advancement_period=2.0, poll_interval=0.25,
        duration=400.0),
    "chaos_rf3": dict(
        nodes=8, update_rate=16.0, inquiry_rate=2.0, audit_rate=0.1,
        entities=200, seed=37, detail=True, drop_rate=0.05, dup_rate=0.05,
        crash_count=1, partition_count=2, coordinator_crashes=1,
        fault_seed=5, replication_factor=3, duration=180.0),
}

#: Summary fields that are not simulation outcomes: the scheduled-callback
#: count (a runtime rewrite may legitimately change it; reported as
#: ``sim.events`` instead) and the three host/build-dependent fields.
DIGEST_EXCLUDED = (
    "sim_events", "wall_seconds", "peak_tracemalloc_bytes", "build_mode",
)


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def resolved_spec(name: str, seed: int, smoke: bool) -> dict:
    """The spec kwargs of a workload, its workload seed offset by ``seed``.

    ``fault_seed`` stays put: on ``chaos_rf3`` the handful of scheduled
    crashes and partitions decide the message and latency figures, and
    moving them with the seed spread ``txn.update_mean`` by 31 % and
    ``msgs_per_txn`` by 11 % of their medians across ten seeds (14 % and
    2 % with the schedule held).
    """
    spec = dict(WORKLOAD_SPECS[name], protocol="3v", span=2)
    spec["seed"] += seed
    if smoke:
        spec["duration"] /= SMOKE_DIVISOR
    return spec


def outcome_digest(summary: dict) -> str:
    """Hash of every simulation outcome in an ``ExperimentSummary``."""
    payload = {k: v for k, v in summary.items() if k not in DIGEST_EXCLUDED}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def run_child(mode: str, spec: dict) -> dict:
    """Run one fresh-interpreter repetition and return what it printed.

    ``setup_s`` is taken here, outside the child: from the spawn call to
    the arrival of the child's ``ready`` line.
    """
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{inherited}" if inherited else str(SRC))
    command = [sys.executable, str(HERE / "child.py"), mode, json.dumps(spec)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        ready_line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    record = json.loads(ready_line)
    record.update(json.loads(rest.strip().splitlines()[-1]))
    record["setup_s"] = setup_s
    return record


def iqr(values: typing.Sequence[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def measure(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Run one workload: timed children, one counted child, all checks."""
    spec = resolved_spec(name, seed, smoke)
    min_reps, budget = (SMOKE_REPS, 0.0) if smoke else (MIN_REPS, seconds)
    timed: typing.List[dict] = []
    started = time.perf_counter()
    spent = last = 0.0
    # Stop where one more child would overrun: the driver caps the total.
    while len(timed) < min_reps or spent + last <= budget:
        timed.append(run_child("timed", spec))
        now = time.perf_counter() - started
        spent, last = now, now - spent
    counted = run_child("counted", spec)

    children = timed + [counted]
    summary = counted["summary"]
    digests = sorted({outcome_digest(c["summary"]) for c in children})
    builds = sorted({(c["build_mode"], c["backend"] or "-") for c in children})

    attempted = summary["submitted"]
    failed = (
        attempted - summary["txn_count"] + summary["fractured_reads"]
        + summary["snapshot_mismatches"] + summary["unreadable_reads_served"])
    problems = []
    if len(builds) > 1:
        problems.append(f"children ran different builds: {builds}")
    if len(digests) > 1:
        problems.append(f"children disagree on the outcome: {digests}")
    if not summary["audit_clean"]:
        problems.append("audit not clean")
    if summary["recoveries"] != summary["crashes"]:
        problems.append(
            f"{summary['crashes']} crashes, {summary['recoveries']} recoveries")
    if failed:
        problems.append(f"{failed} of {attempted} transactions failed")

    # Host seconds become nominal seconds child by child: each carries the
    # reading its own probe took over exactly the interval it scales.
    def program_s(reading: dict) -> float:
        return reading["elapsed_s"] - reading["busy_s"]

    host_spec_s = [program_s(c["run_probe"]) for c in timed]
    run_scale = [host_scale(c["run_probe"]) for c in timed]
    spec_s = [host * k for host, k in zip(host_spec_s, run_scale)]
    simulate_s = [
        program_s(c["simulate_probe"]) * host_scale(c["simulate_probe"])
        for c in timed]
    txns = summary["txn_count"]
    reps = {
        "setup_s": [c["setup_s"] for c in timed],
        "txns_per_s": [txns / s for s in simulate_s],
        "spec_s": spec_s,
        "simulate_s": simulate_s,
        "audit_s": [whole - part for whole, part in zip(spec_s, simulate_s)],
        "import_s": [c["import_s"] for c in timed],
        # spec_s as the host clock read it, less the probe's ticks, and
        # the factor that made it nominal.
        "host_spec_s": host_spec_s,
        "run_scale": run_scale,
    }
    median = {key: statistics.median(values) for key, values in reps.items()}

    end_to_end = {
        "setup_s": median["setup_s"],
        "txns_per_s": median["txns_per_s"],
        "spec_s": median["spec_s"],
        "peak_rss_mb": counted["peak_rss_mb"],
        "calls_per_txn": counted["total_calls"] / txns,
        "sim_staleness_mean": summary["staleness_mean"],
        "msgs_per_txn": summary["messages_total"] / txns,
    }

    traced_total = sum(v["self_s"] for v in counted["layers"].values())
    per_layer: typing.Dict[str, float] = {}
    for layer in LAYERS:
        cell = counted["layers"][layer]
        per_layer[f"{layer}.self_s"] = cell["self_s"]
        per_layer[f"{layer}.share"] = cell["self_s"] / traced_total
        per_layer[f"{layer}.calls"] = cell["calls"]
    messages = summary["messages_total"]
    runs = summary["advancement_runs"]
    per_layer.update({
        "sim.events": summary["sim_events"],
        "sim.events_per_txn": summary["sim_events"] / txns,
        "net.messages": messages,
        "net.control_share": summary["messages_control"] / messages,
        "net.retransmits": summary["retransmits"],
        "net.dropped": summary["messages_dropped"],
        "net.dup_suppressed": summary["dup_suppressed"],
        "net.useful_ratio": (
            messages - summary["retransmits"]
            - summary["messages_duplicated"]) / messages,
        "storage.counter_polls": summary["advancement_counter_polls"],
        "placement.writes_skipped": summary["writes_skipped"],
        "placement.reads_rerouted": summary["reads_rerouted"],
        "placement.reads_gated": summary["reads_gated"],
        "placement.refresh_ops_applied": summary["refresh_ops_applied"],
        "runtime.crashes": summary["crashes"],
        "runtime.recoveries": summary["recoveries"],
        "core.advancement_runs": runs,
        "core.polls_per_advancement": (
            summary["advancement_counter_polls"] / runs if runs else 0.0),
        "core.stall_time": summary["stall_time"],
        "core.max_remote_wait": summary["max_remote_wait"],
        "core.coordinator_takeovers": summary["coordinator_takeovers"],
        "txn.committed_updates": summary["committed_updates"],
        "txn.committed_reads": summary["committed_reads"],
        "txn.aborted": summary["aborted"],
        "txn.update_mean": summary["update_mean"],
        "workloads.submitted": summary["submitted"],
        "workloads.simulate_s": median["simulate_s"],
        "analysis.reads_checked": summary["reads_checked"],
        "analysis.violations": (
            summary["fractured_reads"] + summary["snapshot_mismatches"]),
        "analysis.audit_s": median["audit_s"],
        "exp.import_s": median["import_s"],
        "trace.calls": counted["total_calls"],
        "trace.coverage": traced_total / counted["spec_s"],
        "trace.overhead_x": counted["spec_s"] / median["host_spec_s"],
    })

    return {
        "workload": name,
        "spec": spec,
        "build_mode": counted["build_mode"],
        "backend": counted["backend"],
        "python": counted["python"],
        "digest": digests[0] if len(digests) == 1 else None,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "reps": reps,
        "iqr": {key: iqr(reps[key]) for key in
                ("setup_s", "txns_per_s", "spec_s")},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def render(record: dict, contract: dict) -> str:
    """Every metric of one workload by name, with its unit."""
    lines = [
        f"== {record['workload']}  seed {record['spec']['seed']}"
        f"  timed reps {len(record['reps']['spec_s'])}"
        f"  build {record['build_mode']}/{record['backend'] or '-'}"
        f"  digest {record['digest']}"
        f"  {'correct' if record['correct'] else 'INCORRECT'}",
    ]
    lines += [f"   !! {problem}" for problem in record["problems"]]
    lines.append(
        f"   attempted {record['attempted']}  failed {record['failed']}"
        f"  failed_share {record['failed_share']:.6g} ratio")
    for metric in contract["end_to_end"]:
        name = metric["name"]
        line = (f"   {name:<22}{record['end_to_end'][name]:>16.6f} "
                f"{metric['unit']:<10}")
        if name in record["iqr"]:
            values = " ".join(f"{v:.3f}" for v in record["reps"][name])
            line += f" iqr {record['iqr'][name]:.4f}  [{values}]"
        lines.append(line)
    for metric in contract["per_layer"]:
        name = metric["name"]
        value = record["per_layer"][name]
        text = str(value) if isinstance(value, int) else f"{value:.6f}"
        lines.append(f"   {name:<30}{text:>16} {metric['unit']}")
    return "\n".join(lines)


def render_ledger(records: typing.Sequence[dict]) -> str:
    """The traced run's ledger: workload x layer share, plus coverage."""
    header = f"{'share of traced self time':<26}" + "".join(
        f"{layer[:9]:>10}" for layer in LAYERS) + f"{'coverage':>10}"
    rows = [header]
    for record in records:
        layers = record["per_layer"]
        rows.append(f"{record['workload']:<26}" + "".join(
            f"{layers[f'{layer}.share']:>10.3f}" for layer in LAYERS)
            + f"{layers['trace.coverage']:>10.3f}")
    return "\n".join(rows)


def driver_line(record: dict, contract: dict, trace: int) -> str:
    section, values = (("per_layer", record["per_layer"]) if trace
                       else ("end_to_end", record["end_to_end"]))
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in contract[section]
        },
    })


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload and end with the driver's "
                             "result line (default: run all)")
    parser.add_argument("--seed", "--seed-offset", type=int, default=0,
                        help="added to each workload's seed")
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="wall time spent on timed children per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="result line carries end-to-end (0) or "
                             "per-layer (1) metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"durations / {SMOKE_DIVISOR:g}, {SMOKE_REPS} "
                             "timed children: a harness check, not a result")
    parser.add_argument("--out", help="write every value taken as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2

    records = []
    for name in [args.workload] if args.workload else names:
        record = measure(name, args.seed, args.seconds, args.smoke)
        print(render(record, contract), flush=True)
        records.append(record)
    print(render_ledger(records))

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({
                "contract": contract,
                "environment": {
                    "python": records[0]["python"],
                    "nproc": os.cpu_count(),
                    "build_mode": records[0]["build_mode"],
                    "backend": records[0]["backend"],
                },
                "seed": args.seed,
                "seconds": args.seconds,
                "smoke": args.smoke,
                "workloads": {r["workload"]: r for r in records},
            }, handle, indent=1)
    if args.workload:
        print(driver_line(records[0], contract, args.trace))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
