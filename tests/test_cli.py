"""Tests for the command-line interface."""

import re

import pytest

from repro.analysis import load_txn_records
from repro.cli import build_parser, main
from repro.exp import PARAMETERS_BY_FLAG, ExperimentSpec, run_spec
from repro.sim import Simulator

FAST = ["--duration", "8", "--nodes", "3", "--update-rate", "3",
        "--inquiry-rate", "2", "--entities", "10"]

#: For fleet commands: keep tests from writing to the repo's cache dir.
FLEET_FAST = FAST + ["--no-cache"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "quantum"])

    def test_defaults(self):
        args = build_parser().parse_args(["run", "3v"])
        assert args.nodes == 4
        assert args.duration == 30.0
        assert args.period == 10.0

    @pytest.mark.parametrize("command", ["run", "chaos"])
    def test_help_names_each_default_and_domain_once(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "-h"])
        options = capsys.readouterr().out.split("\noptions:\n")[1]
        entries = [" ".join(entry.split())
                   for entry in re.split(r"\n(?=  -)", options)]
        flags = 0
        for entry in entries:
            assert entry.count("default") <= 1, entry
            parameter = PARAMETERS_BY_FLAG.get(entry.split()[0][2:])
            if parameter is not None:
                flags += 1
                assert entry.count("(default ") == 1, entry
                assert entry.count(f"must be {parameter.domain})") == 1, entry
        assert flags == (27 if command == "run" else 12)


class TestRefusal:
    @pytest.mark.parametrize("argv", [
        "run 3v --duration -1",
        "run 3v --drop-rate 1.5",
        "run 3v --replication-factor 9",
        "run 3v --safety-delay -3",
        "grid --vary nodes=4,0",
        "chaos --drop-rate 1.5",
    ])
    def test_out_of_domain_value_exits_2_in_one_line(
            self, argv, capsys, monkeypatch, tmp_path):
        def no_simulation(*_args, **_kwargs):
            raise AssertionError("a simulation started")

        monkeypatch.setattr(Simulator, "__init__", no_simulation)
        monkeypatch.chdir(tmp_path)
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert re.fullmatch(r"\w+ \(--[\w-]+\) must be .*, got .*\n",
                            captured.out)
        assert captured.err == ""
        assert list(tmp_path.iterdir()) == []


class TestRun:
    def test_run_3v_clean_exit(self, capsys):
        assert main(["run", "3v"] + FAST) == 0
        out = capsys.readouterr().out
        assert "audit: clean" in out
        assert "3v" in out

    def test_run_nocoord_reports_metrics(self, capsys):
        # no-coordination may or may not fracture at this scale; the CLI
        # only fails on an audit failure for protocols that promise
        # consistency, which nocoord does not.
        code = main(["run", "nocoord"] + FAST)
        out = capsys.readouterr().out
        assert "upd/s" in out
        assert code in (0, 1)

    def test_run_with_corrections(self, capsys):
        assert main(["run", "3v", "--correction-rate", "0.5"] + FAST) == 0

    def test_run_streaming_spills_every_transaction(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        argv = ["run", "3v", "--stream", "1"] + FAST
        assert main(argv + ["--trace", str(path)]) == 0
        title = capsys.readouterr().out.strip().splitlines()[0]
        assert title.endswith("[streaming]")
        summary = run_spec(ExperimentSpec.from_args(
            build_parser().parse_args(argv)))
        assert len(load_txn_records(path)) == summary.txn_count > 0

    def test_non_finite_parameter_exits_2_naming_it(self, capsys):
        # Last flag wins: FAST sets a finite update rate of its own.
        assert main(["run", "3v"] + FAST + ["--update-rate", "nan"]) == 2
        assert capsys.readouterr().out.startswith("update_rate (--update-rate)")
        assert main(["sweep", "3v", "duration", "inf"] + FLEET_FAST) == 2
        assert capsys.readouterr().out.startswith("duration (--duration)")


class TestCompare:
    def test_compare_default_protocols(self, capsys):
        assert main(["compare"] + FLEET_FAST) == 0
        out = capsys.readouterr().out
        for protocol in ("3v", "nocoord", "manual", "2pc"):
            assert protocol in out

    def test_compare_subset(self, capsys):
        assert main(["compare", "3v", "2pc"] + FLEET_FAST) == 0

    def test_compare_with_reps(self, capsys):
        assert main(["compare", "3v", "--reps", "2"] + FLEET_FAST) == 0
        out = capsys.readouterr().out
        assert "2 reps" in out


class TestSweep:
    def test_sweep_nodes_renders_exact_ints(self, capsys):
        assert main(["sweep", "3v", "nodes", "2", "4"] + FLEET_FAST) == 0
        out = capsys.readouterr().out
        assert "Sweep of nodes" in out
        # Integer parameters stay exact ints, never "2.0" / "4.0".
        cells = [line.split()[0] for line in out.splitlines()
                 if line and line.split()[0].replace(".", "").isdigit()]
        assert "2" in cells and "4" in cells
        assert "2.0" not in cells and "4.0" not in cells

    def test_sweep_period(self, capsys):
        assert main(["sweep", "3v", "period", "5", "20"] + FLEET_FAST) == 0

    def test_sweep_any_registered_parameter(self, capsys):
        assert main(
            ["sweep", "3v", "update-rate", "2", "4"] + FLEET_FAST) == 0
        out = capsys.readouterr().out
        assert "Sweep of update-rate" in out

    def test_sweep_rejects_fractional_int_parameter(self, capsys):
        assert main(["sweep", "3v", "entities", "2.5"] + FLEET_FAST) == 2
        assert "int" in capsys.readouterr().out

    def test_sweep_does_not_mutate_defaults_across_values(self, capsys):
        # The old CLI mutated one shared namespace per swept value; a
        # sweep of span must leave nodes at its flag value for every task.
        assert main(["sweep", "3v", "span", "1", "2"] + FLEET_FAST) == 0
        out = capsys.readouterr().out
        assert "Sweep of span" in out


class TestGrid:
    def test_grid_protocol_by_nodes(self, capsys):
        assert main(["grid", "3v", "nocoord", "--vary", "nodes=2,3",
                     "--reps", "2"] + FLEET_FAST) == 0
        out = capsys.readouterr().out
        assert "Grid: 4 cells x 2 reps" in out

    def test_grid_rejects_unknown_parameter(self, capsys):
        assert main(["grid", "3v", "--vary", "quantumness=1,2"]
                    + FLEET_FAST) == 2
        assert "unknown parameter" in capsys.readouterr().out

    def test_grid_cached_rerun_is_identical(self, capsys, tmp_path):
        argv = ["grid", "3v", "--vary", "nodes=2,3",
                "--cache-dir", str(tmp_path)] + FAST
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestPaper:
    def test_paper_replay_matches(self, capsys):
        assert main(["paper"]) == 0
        out = capsys.readouterr().out
        assert "matches Figure 2: yes" in out
        assert "dual write" in out
