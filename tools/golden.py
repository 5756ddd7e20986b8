#!/usr/bin/env python
"""The determinism gate: every outcome a refactor must reproduce bit for bit.

``GOLDEN.json`` at the repository root holds six tables of outcomes of
fixed configurations.  None of them is a timing, and none depends on the
host, so any difference means the simulation's behaviour changed:

* ``determinism`` / ``smoke_determinism`` — the full- and smoke-size
  cells: the 3V recording run (``events``, ``txns``, ``update_throughput``,
  ``update_p95``), an advancement-heavy run (``advancement_*``), and the
  node-scaling, volume and replication sweeps of ``benchmarks/``
  (``scaling_*``, ``volume_*``, ``repl_*``), which assert their own
  equivalences as they run;
* ``e2e`` — the outcome digest of every ``BENCHMARK.json`` workload at
  seed offsets 0-9 and smoke duration, computed with
  ``benchmarks/e2e/run.py``'s own spec and digest;
* ``summary`` — per protocol, the sha256 of one run's whole
  ``ExperimentSummary`` (less its two machine-dependent fields and its
  ``sim_events``) on a spec that wires every counting layer: faults,
  placement, batched delivery and coordinator crashes;
* ``summary_events`` — per protocol, that run's ``sim_events``, pinned
  apart so that a change meant to move scheduled-callback counts moves
  only these keys and ``summary`` proves every other field held;
* ``cli`` — exit status and stdout sha256 of every ``repro`` command CI
  runs, plus ``repro paper``, ``repro compare``, a materialized traced
  run, two refused out-of-domain values and a failing audit (post-hoc
  and rolling), and the sha256 of the streaming and the materialized
  run's trace files.

Usage (from any directory)::

    python tools/golden.py --check --smoke   # all but `determinism` (~15 s; CI)
    python tools/golden.py --check           # every table (~15 min: the 1M-txn volume cell)
    python tools/golden.py --update          # rewrite GOLDEN.json, print what moved
    python tools/golden.py --update --smoke  # the same, keeping `determinism` as committed

``--check`` exits 1 when a key is missing, changed or not committed, and
names each one.  See docs/PERFORMANCE.md ("GOLDEN.json").
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import typing

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
GOLDEN_PATH = REPO_ROOT / "GOLDEN.json"

sys.path.insert(0, str(SRC))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "e2e"))

import bench_replication  # noqa: E402  (needs the path setup above)
import bench_scaling_nodes  # noqa: E402
import bench_volume  # noqa: E402
import run as e2e  # noqa: E402  (benchmarks/e2e/run.py)
from repro.analysis.metrics import latency_summary, throughput  # noqa: E402
from repro.exp import ExperimentSpec, run_spec  # noqa: E402
from repro.runtime import PROTOCOLS  # noqa: E402
from repro.workloads import run_recording_experiment  # noqa: E402

#: The table only ``--check`` / ``--update`` without ``--smoke`` compute.
FULL_TABLE = "determinism"

#: The 3V recording run and the advancement-heavy run, per size.
RECORDING = {
    "full": dict(nodes=8, duration=120.0, update_rate=16.0, inquiry_rate=8.0,
                 audit_rate=0.2, entities=200, span=2, seed=13, detail=False),
    "smoke": dict(nodes=4, duration=20.0, update_rate=8.0, inquiry_rate=4.0,
                  audit_rate=0.2, entities=60, span=2, seed=13, detail=False),
}
ADVANCEMENT = {
    "full": dict(nodes=8, duration=60.0, update_rate=8.0, inquiry_rate=4.0,
                 audit_rate=0.1, entities=100, span=2, seed=29, detail=False,
                 advancement_period=2.0, poll_interval=0.25),
    "smoke": dict(nodes=4, duration=15.0, update_rate=4.0, inquiry_rate=2.0,
                  audit_rate=0.1, entities=40, span=2, seed=29, detail=False,
                  advancement_period=2.0, poll_interval=0.25),
}

E2E_SEEDS = range(10)

#: The ``summary`` table's spec: loss, duplication, node and coordinator
#: crashes, a partition, replication and batched delivery, so each
#: protocol wires every counting layer it has.
SUMMARY_SPEC = dict(nodes=4, duration=30.0, replication_factor=3,
                    drop_rate=0.05, dup_rate=0.05, crash_count=1,
                    partition_count=1, coordinator_crashes=1,
                    batch_delivery=1, latency_jitter=0.0, fault_seed=5)

#: ``ExperimentSummary`` fields that measure the host, not the run.
MACHINE_FIELDS = ("wall_seconds", "peak_tracemalloc_bytes")

#: Trace files of the streaming and the materialized traced command,
#: relative to the directory the commands run in: a trace's path is part
#: of its command's stdout.
TRACES = ("stream-trace.jsonl", "run-trace.jsonl")

#: Commands whose value lies outside its domain: each prints one refusal
#: line and exits 2.
REFUSED = ("run 3v --duration -1", "chaos --drop-rate 1.5")

#: Runs whose audit fails, post-hoc and rolling: each prints the first
#: violation it found and exits 1, so the order violations are reported
#: in is pinned.
FAILED_AUDITS = ("run nocoord --duration 20 --amount-mode bitmask",
                 "run nocoord --duration 20 --amount-mode bitmask --stream 1")

#: ``python -m repro`` argument strings: the CI steps, then ten more.
COMMANDS = (
    "chaos --duration 15",
    "chaos --duration 15 --replication-factor 3 --crash-count 1",
    "chaos --duration 15 --partition-count 1 --coordinator-crashes 1",
    "run 3v --duration 20",
    f"run 3v --duration 20 --stream 1 --trace {TRACES[0]}",
    "run 3v --duration 20 --abort-fraction 0.5 --span 3 --update-rate 12 "
    "--latency-jitter 1.9 --amount-mode bitmask",
    "run 3v --duration 20 --replication-factor 3 --abort-fraction 0.3 "
    "--amount-mode bitmask --crash-count 1",
    "paper",
    "compare --nodes 4 --duration 20 --no-cache",
    *REFUSED,
    # The one run that keeps write events: a retained history's trace.
    f"run 3v --duration 20 --trace {TRACES[1]}",
    # The one run with NC3V on: corrections take the two-phase path,
    # well-behaved updates hold commute locks until their root completes.
    "run 3v --duration 20 --correction-rate 0.5",
    *FAILED_AUDITS,
)

ABSENT = "<absent>"


def recording_cells(mode: str) -> dict:
    """The 3V recording run's counts and analysis floats, and the
    advancement-heavy run's waves."""
    result = run_recording_experiment("3v", **RECORDING[mode])
    advancement = run_recording_experiment("3v", **ADVANCEMENT[mode])
    return {
        "events": result.system.sim.scheduled_count,
        "txns": len(result.history.txns),
        "update_throughput": throughput(result.history, result.duration,
                                        kind="update"),
        "update_p95": latency_summary(result.history, kind="update").p95,
        "advancement_runs": advancement.system.coordinator.completed_runs,
        "advancement_counter_polls": sum(
            a.counter_polls for a in advancement.history.advancements),
    }


def sweep_table(mode: str) -> dict:
    """One ``determinism`` / ``smoke_determinism`` table."""
    cells = recording_cells(mode)
    # repeat=1: the sweep's best-of-N timing feeds its own table, not this.
    cells.update(bench_scaling_nodes.run_scaling(mode, repeat=1)["determinism"])
    cells.update(bench_volume.run_volume(mode)["determinism"])
    cells.update(bench_replication.run_replication(mode)["determinism"])
    return cells


def e2e_table() -> dict:
    return {
        f"{w['name']} seed {seed}": e2e.outcome_digest(run_spec(
            ExperimentSpec(**e2e.resolved_spec(w["name"], seed, smoke=True))
        ).to_dict())
        for w in e2e.load_contract()["workloads"] for seed in E2E_SEEDS
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summary_tables() -> typing.Tuple[dict, dict]:
    """Each protocol's summary on :data:`SUMMARY_SPEC`: its fields hashed,
    and its event count."""
    hashes, events = {}, {}
    for protocol in PROTOCOLS:
        summary = run_spec(ExperimentSpec(protocol, **SUMMARY_SPEC)).to_dict()
        for name in MACHINE_FIELDS:
            del summary[name]
        events[protocol] = summary.pop("sim_events")
        hashes[protocol] = sha256(
            json.dumps(summary, sort_keys=True).encode())
    return hashes, events


def cli_table() -> dict:
    """Run every command in one scratch directory, stderr passed through."""
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([inherited] if inherited else [])))
    cells: typing.Dict[str, typing.Any] = {}
    with tempfile.TemporaryDirectory() as scratch:
        for command in COMMANDS:
            done = subprocess.run(
                [sys.executable, "-m", "repro", *command.split()],
                cwd=scratch, env=env, stdout=subprocess.PIPE)
            cells[f"repro {command}"] = {"exit": done.returncode,
                                         "stdout_sha256": sha256(done.stdout)}
        for name in TRACES:
            trace = pathlib.Path(scratch) / name
            cells[name] = (sha256(trace.read_bytes()) if trace.is_file()
                           else ABSENT)
    return cells


def run(smoke: bool) -> dict:
    """Every table the mode computes."""
    summary, summary_events = summary_tables()
    tables = {"smoke_determinism": sweep_table("smoke"),
              "e2e": e2e_table(), "summary": summary,
              "summary_events": summary_events, "cli": cli_table()}
    if not smoke:
        tables[FULL_TABLE] = sweep_table("full")
    return tables


def changes(golden: dict, fresh: dict, smoke: bool) -> typing.List[str]:
    """One line per key, in every table the mode computes, that is
    missing from ``fresh``, absent from ``golden`` or different."""
    tables = set(golden) | set(fresh)
    if smoke:
        tables.discard(FULL_TABLE)
    lines = []
    for table in sorted(tables):
        old, new = golden.get(table, {}), fresh.get(table, {})
        for name in sorted(old.keys() | new.keys()):
            before, after = old.get(name, ABSENT), new.get(name, ABSENT)
            if before != after:
                lines.append(f"{table} / {name}: {before} -> {after}")
    return lines


def check(golden: dict, fresh: dict, smoke: bool, out=print) -> bool:
    """Report each of :func:`changes`; ``True`` when there are none."""
    lines = changes(golden, fresh, smoke)
    for line in lines:
        out(f"MOVED  {line}")
    return not lines


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true",
                        help="exit 1 unless every key matches GOLDEN.json")
    action.add_argument("--update", action="store_true",
                        help="rewrite GOLDEN.json, printing each key that "
                             "moved, was added or was removed")
    parser.add_argument("--smoke", action="store_true",
                        help=f"skip the full-size `{FULL_TABLE}` table")
    args = parser.parse_args(argv)

    golden = (json.loads(GOLDEN_PATH.read_text())
              if GOLDEN_PATH.is_file() else {})
    fresh = run(args.smoke)
    if args.check:
        passed = check(golden, fresh, args.smoke)
        print("golden:", "PASS" if passed else "FAIL",
              "(smoke)" if args.smoke else "(full)")
        return 0 if passed else 1

    for line in changes(golden, fresh, args.smoke):
        print(line)
    kept = ({FULL_TABLE: golden[FULL_TABLE]}
            if args.smoke and FULL_TABLE in golden else {})
    GOLDEN_PATH.write_text(
        json.dumps(dict(kept, **fresh), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
