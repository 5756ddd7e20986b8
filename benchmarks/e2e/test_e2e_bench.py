"""Harness checks for the e2e benchmark, driven through ``--smoke``.

Run with ``python -m pytest benchmarks/e2e`` (not part of tier 1: the
two smoke invocations take about half a minute).
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

import child
import compare
import run

CONTRACT = run.load_contract()
E2E_NAMES = [m["name"] for m in CONTRACT["end_to_end"]]
LAYER_NAMES = [m["name"] for m in CONTRACT["per_layer"]]
WORKLOAD_NAMES = [w["name"] for w in CONTRACT["workloads"]]

#: End-to-end metrics that are counts or simulated time, not host time.
EXACT_E2E = ("calls_per_txn", "sim_staleness_mean", "msgs_per_txn")
#: Per-layer metrics taken from a host clock.
TIMED_LAYER = re.compile(
    r"\.self_s$|\.share$|^workloads\.simulate_s$|^analysis\.audit_s$"
    r"|^exp\.import_s$|^trace\.coverage$|^trace\.overhead_x$")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two full ``--smoke`` invocations: ``[(stdout, --out document)] * 2``."""
    runs = []
    for tag in "ab":
        out = tmp_path_factory.mktemp("e2e") / f"{tag}.json"
        done = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--smoke",
             "--out", str(out)],
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        runs.append((done.stdout, json.loads(out.read_text())))
    return runs


def test_contract_is_within_the_drivers_limits():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert isinstance(CONTRACT["run_seconds"], int)
    names = WORKLOAD_NAMES + E2E_NAMES + LAYER_NAMES
    assert len(set(names)) == len(names)
    assert all(name.match(n) for n in names)
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert unit.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in CONTRACT["workloads"])


def test_run_prints_exactly_the_contracts_names(smoke):
    assert WORKLOAD_NAMES == list(run.WORKLOAD_SPECS)
    stdout, document = smoke[0]
    assert list(document["workloads"]) == WORKLOAD_NAMES
    for record in document["workloads"].values():
        assert sorted(record["end_to_end"]) == sorted(E2E_NAMES)
        assert sorted(record["per_layer"]) == sorted(LAYER_NAMES)
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert re.search(
            rf"^ +{re.escape(metric['name'])} +\S+ {re.escape(metric['unit'])}",
            stdout, re.M), metric


def test_driver_line_carries_the_section_trace_selects(smoke):
    record = smoke[0][1]["workloads"]["record_8n"]
    for trace, names in ((0, E2E_NAMES), (1, LAYER_NAMES)):
        line = json.loads(run.driver_line(record, CONTRACT, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == names
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1


def test_every_source_file_has_a_ledger_layer():
    package = run.SRC / "repro"
    seen = {child.layer_of(str(path), str(package))
            for path in package.rglob("*.py")}
    assert seen <= set(child.LAYERS)
    assert child.layer_of(str(pathlib.Path(__file__)), str(package)) == "other"
    with pytest.raises(KeyError):
        child.layer_of(str(package / "newpkg" / "mod.py"), str(package))
    for layer in child.LAYERS:
        for suffix in ("self_s", "share", "calls"):
            assert f"{layer}.{suffix}" in LAYER_NAMES


def test_ledger_accounts_for_the_traced_run(smoke):
    for record in smoke[0][1]["workloads"].values():
        layers = record["per_layer"]
        shares = sum(layers[f"{layer}.share"] for layer in child.LAYERS)
        assert shares == pytest.approx(1.0, abs=1e-9)
        calls = sum(layers[f"{layer}.calls"] for layer in child.LAYERS)
        assert calls == layers["trace.calls"]
        # What is missing is cProfile's own bookkeeping between its two
        # clock reads per event, which no function's tottime contains.
        assert 0.93 <= layers["trace.coverage"] <= 1.0, record["workload"]
        assert layers["baselines.calls"] == 0


def test_fault_layers_run_only_where_faults_are_injected(smoke):
    workloads = smoke[0][1]["workloads"]
    for name, record in workloads.items():
        layers = record["per_layer"]
        if name == "chaos_rf3":
            assert layers["faults.calls"] > 0
            assert layers["net.dropped"] > 0
        else:
            assert layers["faults.calls"] == 0
            for counter in ("net.retransmits", "net.dropped",
                            "placement.writes_skipped", "runtime.crashes"):
                assert layers[counter] == 0, (name, counter)
    assert workloads["record_8n"]["per_layer"]["analysis.reads_checked"] == 0


def test_two_invocations_agree_exactly_on_counts_and_outcomes(smoke):
    (_, first), (_, second) = smoke
    for name in WORKLOAD_NAMES:
        a, b = first["workloads"][name], second["workloads"][name]
        assert a["correct"] and b["correct"]
        assert a["digest"] is not None
        assert a["digest"] == b["digest"]
        assert a["spec"] == b["spec"]
        for metric in EXACT_E2E:
            assert a["end_to_end"][metric] == b["end_to_end"][metric], metric
        for metric in LAYER_NAMES:
            if not TIMED_LAYER.search(metric):
                assert a["per_layer"][metric] == b["per_layer"][metric], metric


def test_compare_reads_two_invocations(smoke, tmp_path, capsys):
    paths = []
    for tag, (_, document) in zip("ab", smoke):
        paths.append(tmp_path / f"{tag}.json")
        paths[-1].write_text(json.dumps(document))
    status = compare.main([str(p) for p in paths])
    table = capsys.readouterr().out
    assert table.count("outcome digest identical") == len(WORKLOAD_NAMES)
    assert "DIFFERENT" not in table
    for metric in EXACT_E2E:
        rows = [r for r in table.splitlines() if f" {metric} " in r]
        assert len(rows) == len(WORKLOAD_NAMES)
        assert all(r.endswith("ok") and "+0.0000" in r for r in rows)
    assert status in (0, 1)  # a timing row may read worse on a busy host


def test_compare_verdicts():
    quiet_a, quiet_b = (100.0, 1.0, 99.0, 101.0), (120.0, 1.0, 119.0, 121.0)
    assert compare.verdict(quiet_a, quiet_b, "lower", 0.1)[1] == "worse"
    assert compare.verdict(quiet_a, quiet_b, "higher", 0.1)[1] == "ok"
    assert compare.verdict(quiet_b, quiet_a, "higher", 0.1)[1] == "worse"
    noisy_a, noisy_b = (100.0, 30.0, 80.0, 130.0), (120.0, 5.0, 110.0, 125.0)
    assert compare.verdict(noisy_a, noisy_b, "lower", 0.1)[1] == "unresolved"
    apart = (150.0, 5.0, 140.0, 155.0)
    assert compare.verdict(noisy_a, apart, "lower", 0.1)[1] == "worse"


def test_host_scale_restates_host_time_at_the_nominal_tick():
    nominal = child.NOMINAL_TICK_S
    usual = {"busy_s": 200 * nominal, "ticks": 200, "elapsed_s": 1.0}
    assert child.host_scale(usual) == pytest.approx(1.0)
    # Ticks twice as long mean a program 2 ** HOST_EXPONENT times as slow.
    slow = {"busy_s": 400 * nominal, "ticks": 200, "elapsed_s": 1.0}
    assert child.host_scale(slow) == pytest.approx(
        0.5 ** child.HOST_EXPONENT)
    assert child.host_scale({"busy_s": 0.0, "ticks": 0,
                             "elapsed_s": 0.001}) == 1.0


def test_timed_children_report_host_and_nominal_time(smoke):
    for record in smoke[0][1]["workloads"].values():
        reps = record["reps"]
        assert all(0.3 < k < 3.0 for k in reps["run_scale"])
        for nominal, host, scale in zip(
                reps["spec_s"], reps["host_spec_s"], reps["run_scale"]):
            assert nominal == pytest.approx(host * scale)


def test_seed_moves_the_workload_seed_and_smoke_only_shortens():
    base = run.resolved_spec("chaos_rf3", 0, False)
    moved = run.resolved_spec("chaos_rf3", 3, True)
    assert moved["seed"] == base["seed"] + 3
    assert moved["duration"] == base["duration"] / run.SMOKE_DIVISOR
    changed = {k for k in base if base[k] != moved[k]}
    assert changed == {"seed", "duration"}
    assert run.WORKLOAD_SPECS["chaos_rf3"]["seed"] == base["seed"]


def test_forced_audit_failure_fails_the_run(monkeypatch, capsys):
    real = run.run_child

    def doctored(mode, spec):
        record = real(mode, spec)
        record["summary"].update(audit_clean=False, fractured_reads=3)
        return record

    monkeypatch.setattr(run, "run_child", doctored)
    status = run.main(["--workload", "record_8n", "--smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert status != 0
    assert result["correct"] is False
    assert result["failed"] == 3 and result["failed"] / result["attempted"] > 0
    assert any("audit not clean" in line for line in lines)


def test_children_that_disagree_fail_the_run(monkeypatch, capsys):
    real = run.run_child

    def drifting(mode, spec):
        record = real(mode, spec)
        if mode == "counted":
            record["summary"]["messages_total"] += 1
            record["build_mode"] = "accel"
        return record

    monkeypatch.setattr(run, "run_child", drifting)
    status = run.main(["--workload", "record_8n", "--smoke"])
    out = capsys.readouterr().out
    assert status != 0
    assert "children disagree on the outcome" in out
    assert "children ran different builds" in out


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for name in ("run.py", "child.py"):
        (bare / name).write_text((run.HERE / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONTRACT))
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "record_8n",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
