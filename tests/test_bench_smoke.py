"""Smoke coverage for the hot-path digest harness.

Keeps ``benchmarks/bench_hotpath.py`` and ``tools/bench.py`` inside the
tier-1 safety net: the smoke suite must run inside the test budget, the
e2e workload must be deterministic, the committed ``BENCH_hotpath.json``
must stay well-formed and match a fresh run, and the ``--check`` gate
logic must actually gate.

``pytest -m benchsmoke`` selects just the suite-exercising subset.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT / "tools"))

import bench as bench_cli  # noqa: E402
import bench_hotpath  # noqa: E402

BASELINE_PATH = REPO_ROOT / "BENCH_hotpath.json"


@pytest.mark.benchsmoke
class TestSmokeSuite:
    @pytest.fixture(scope="class")
    def suite(self):
        return bench_hotpath.run_suite("smoke")

    def test_aggregate_check_is_the_fast_path(self):
        """The quiescence check the detector polls is the aggregate-total
        path; the O(nodes²) scan stays on the books as the (much slower)
        oracle.  Timed here: the suite collects no rates."""
        cfg = bench_hotpath.CONFIGS["smoke"]

        def checks_per_sec(storm, checks):
            started = time.perf_counter()
            assert storm(checks, cfg["quiescent_nodes"])
            return checks / (time.perf_counter() - started)

        assert (
            checks_per_sec(bench_hotpath.aggregate_quiescent_storm,
                           cfg["aggregate_checks"])
            > 5 * checks_per_sec(bench_hotpath.quiescent_storm,
                                 cfg["quiescent_checks"]))

    def test_scaling_cells_present_in_digest(self, suite):
        for nodes in (4, 8, 16):
            for key in (f"scaling_events_{nodes:02d}",
                        f"scaling_events_batched_{nodes:02d}",
                        f"scaling_messages_{nodes:02d}",
                        f"scaling_advancement_runs_{nodes:02d}"):
                assert key in suite["determinism"], key
            assert (suite["determinism"][f"scaling_events_batched_{nodes:02d}"]
                    < suite["determinism"][f"scaling_events_{nodes:02d}"])

    def test_volume_cells_present_in_digest(self, suite):
        """The streaming volume cells ride along with bit-stable counts
        (``run_volume`` itself raises past the hard 1.5x memory bar)."""
        for cell in ("small", "large"):
            for key in (f"volume_events_{cell}", f"volume_txns_{cell}"):
                assert key in suite["determinism"], key
        assert (suite["determinism"]["volume_txns_large"]
                > suite["determinism"]["volume_txns_small"])
        assert "volume_differential_txns" in suite["determinism"]

    def test_replication_cells_present_in_digest(self, suite):
        """The replication cells ride along: bit-stable counts per rf,
        the same transactions at every rf (only the fan-out differs),
        strictly growing message traffic, and the rf=1 bit-identity
        digest pin."""
        assert "repl_rf1_digest" in suite["determinism"]
        for rf in (1, 2, 3):
            for key in (f"repl_events_rf{rf}", f"repl_txns_rf{rf}",
                        f"repl_messages_rf{rf}"):
                assert key in suite["determinism"], key
            assert (suite["determinism"][f"repl_txns_rf{rf}"]
                    == suite["determinism"]["repl_txns_rf1"])
        assert (suite["determinism"]["repl_messages_rf1"]
                < suite["determinism"]["repl_messages_rf2"]
                < suite["determinism"]["repl_messages_rf3"])

    def test_e2e_workload_is_deterministic(self, suite):
        digest = bench_hotpath.assert_deterministic("smoke")
        for key, value in digest.items():
            assert suite["determinism"][key] == value


class TestCommittedBaseline:
    @pytest.fixture(scope="class")
    def baseline(self):
        assert BASELINE_PATH.exists(), "BENCH_hotpath.json missing"
        return json.loads(BASELINE_PATH.read_text())

    def test_schema(self, baseline):
        assert baseline["schema_version"] == 1
        assert set(baseline) == {"schema_version", "description",
                                 "determinism", "smoke_determinism"}

    def test_determinism_digest_matches_committed(self, baseline):
        """The full-mode e2e digest is machine-independent; a fresh smoke
        digest must match the committed smoke digest bit for bit."""
        fresh = bench_hotpath.e2e_digest(
            bench_hotpath.run_e2e(bench_hotpath.CONFIGS["smoke"]["e2e"])
        )
        committed = baseline["smoke_determinism"]
        for key, value in fresh.items():
            assert committed[key] == value


class TestCheckGate:
    """--check logic, driven synthetically."""

    BASELINE = {
        "determinism": {"events": 42, "txns": 9},
        "smoke_determinism": {"events": 7},
    }

    @staticmethod
    def passes(baseline, determinism, mode):
        return bench_cli.check(baseline, {"determinism": determinism}, mode,
                               out=lambda *_: None)

    def test_fails_on_determinism_break(self):
        assert self.passes(self.BASELINE, {"events": 42, "txns": 9}, "full")
        assert not self.passes(self.BASELINE, {"events": 43, "txns": 9},
                               "full")
        # A committed cell the fresh run no longer produces is a break too.
        assert not self.passes(self.BASELINE, {"events": 42}, "full")

    def test_smoke_mode_uses_smoke_tables(self):
        assert self.passes(self.BASELINE, {"events": 7}, "smoke")
        assert not self.passes(self.BASELINE, {"events": 8}, "smoke")

    def test_smoke_never_compares_against_full_tables(self):
        """Like-for-like only: a smoke run that would fail against the
        full-mode digests still passes when its own table matches."""
        # txns is absent and events differs vs the *full* table, which
        # must not matter in smoke mode.
        assert self.passes(self.BASELINE, {"events": 7}, "smoke")
        assert not self.passes(self.BASELINE, {"events": 42, "txns": 9},
                               "smoke")

    def test_fails_when_baseline_lacks_mode_tables(self):
        """A baseline written before a mode existed must fail that
        mode's gate rather than vacuously passing on an empty table."""
        full_only = {"determinism": {"events": 42}}
        assert not self.passes(full_only, {"events": 42}, "smoke")
        smoke_only = {"smoke_determinism": {"events": 7}}
        assert not self.passes(smoke_only, {"events": 7}, "full")
