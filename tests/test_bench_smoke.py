"""Smoke coverage for the hot-path benchmark harness.

Keeps ``benchmarks/bench_hotpath.py`` and ``tools/bench.py`` inside the
tier-1 safety net: the smoke suite must run inside the test budget, the
e2e workload must be deterministic, the committed ``BENCH_hotpath.json``
must stay well-formed (and keep showing the tracked speedup over the seed
kernel), and the ``--check`` regression-gate logic must actually gate.

``pytest -m benchsmoke`` selects just the suite-exercising subset.
"""

from __future__ import annotations

import json
import pathlib
import sys

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

    def test_all_metrics_positive(self, suite):
        assert suite["mode"] == "smoke"
        assert suite["metrics"], "smoke suite produced no metrics"
        for name, value in suite["metrics"].items():
            assert value > 0, f"{name} was not a positive rate: {value}"

    def test_expected_metric_set(self, suite):
        expected = {
            "kernel_callback_events_per_sec",
            "kernel_callback_speedup_vs_reference",
            "kernel_process_events_per_sec",
            "kernel_process_speedup_vs_reference",
            "e2e_3v_txns_per_sec",
            "advancement_events_per_sec",
            "counter_incs_per_sec",
            "mvstore_ops_per_sec",
            "quiescent_checks_per_sec",
            "quiescent_scan_checks_per_sec",
            "scaling_advancement_events_per_sec_16",
            "scaling_batch_speedup_16",
            "volume_stream_txns_per_sec",
            "volume_memory_flatness",
            "repl_rf1_txns_per_sec",
            "repl_rf1_msg_overhead",
            "repl_rf2_txns_per_sec",
            "repl_rf2_msg_overhead",
            "repl_rf3_txns_per_sec",
            "repl_rf3_msg_overhead",
        }
        assert set(suite["metrics"]) == expected

    def test_aggregate_check_is_the_fast_path(self, suite):
        """The tracked quiescence metric is the aggregate-total path; the
        O(nodes²) scan stays on the books as the (much slower) oracle."""
        assert (suite["metrics"]["quiescent_checks_per_sec"]
                > 5 * suite["metrics"]["quiescent_scan_checks_per_sec"])

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
        and a memory-flatness ratio inside the hard 1.5x bar."""
        for cell in ("small", "large"):
            for key in (f"volume_events_{cell}", f"volume_txns_{cell}"):
                assert key in suite["determinism"], key
        assert (suite["determinism"]["volume_txns_large"]
                > suite["determinism"]["volume_txns_small"])
        assert "volume_differential_txns" in suite["determinism"]
        assert suite["metrics"]["volume_memory_flatness"] > 1 / 1.5

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
        assert suite["metrics"]["repl_rf1_msg_overhead"] == 1.0
        assert (suite["metrics"]["repl_rf2_msg_overhead"]
                < suite["metrics"]["repl_rf3_msg_overhead"])

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
        for key in ("metrics", "determinism", "smoke_metrics",
                    "smoke_determinism", "seed_baseline", "speedup_vs_seed"):
            assert key in baseline, f"baseline missing {key!r}"

    def test_determinism_digest_matches_committed(self, baseline):
        """The full-mode e2e digest is machine-independent; a fresh smoke
        digest must match the committed smoke digest bit for bit."""
        fresh = bench_hotpath.e2e_digest(
            bench_hotpath.run_e2e(bench_hotpath.CONFIGS["smoke"]["e2e"])
        )
        committed = baseline["smoke_determinism"]
        for key, value in fresh.items():
            assert committed[key] == value

    def test_tracked_speedup_over_seed_kernel(self, baseline):
        """The tentpole acceptance bar: >=1.5x end-to-end transactions/sec
        over the seed kernel, as recorded in the committed trajectory."""
        assert baseline["speedup_vs_seed"]["e2e_3v_txns_per_sec"] >= 1.5


class TestCheckGate:
    """--check logic, driven synthetically (no timing, never flaky)."""

    BASELINE = {
        "metrics": {"a_per_sec": 100.0, "b_per_sec": 1000.0},
        "determinism": {"events": 42},
        "smoke_metrics": {"a_per_sec": 10.0},
        "smoke_determinism": {"events": 7},
    }

    @staticmethod
    def fresh(metrics, determinism):
        # Pin the build stamp so these synthetic comparisons stay legal
        # (and deterministic) whatever kernel build the test process runs.
        return {"metrics": metrics, "determinism": determinism,
                "build": {"mode": "pure", "backend": None}}

    def test_passes_within_tolerance(self):
        fresh = self.fresh({"a_per_sec": 80.0, "b_per_sec": 1500.0},
                           {"events": 42})
        assert bench_cli.check(self.BASELINE, fresh, "full", 0.25,
                               out=lambda *_: None)

    def test_fails_on_slowdown_beyond_tolerance(self):
        fresh = self.fresh({"a_per_sec": 70.0, "b_per_sec": 1000.0},
                           {"events": 42})
        assert not bench_cli.check(self.BASELINE, fresh, "full", 0.25,
                                   out=lambda *_: None)

    def test_fails_on_missing_metric(self):
        fresh = self.fresh({"a_per_sec": 100.0}, {"events": 42})
        assert not bench_cli.check(self.BASELINE, fresh, "full", 0.25,
                                   out=lambda *_: None)

    def test_fails_on_determinism_break(self):
        fresh = self.fresh({"a_per_sec": 100.0, "b_per_sec": 1000.0},
                           {"events": 43})
        assert not bench_cli.check(self.BASELINE, fresh, "full", 0.25,
                                   out=lambda *_: None)

    def test_smoke_mode_uses_smoke_tables(self):
        fresh = self.fresh({"a_per_sec": 9.0}, {"events": 7})
        assert bench_cli.check(self.BASELINE, fresh, "smoke", 0.25,
                               out=lambda *_: None)
        fresh = self.fresh({"a_per_sec": 9.0}, {"events": 8})
        assert not bench_cli.check(self.BASELINE, fresh, "smoke", 0.25,
                                   out=lambda *_: None)

    def test_smoke_never_compares_against_full_tables(self):
        """Like-for-like only: a smoke run that would fail against the
        full-mode numbers still passes when its own table is healthy."""
        baseline = dict(self.BASELINE)
        fresh = self.fresh({"a_per_sec": 9.0, "b_per_sec": 1.0},
                           {"events": 7})
        # b_per_sec is 1000x down vs the *full* table, which must not
        # matter in smoke mode (it has no smoke baseline entry).
        assert bench_cli.check(baseline, fresh, "smoke", 0.25,
                               out=lambda *_: None)

    def test_fails_when_baseline_lacks_mode_tables(self):
        """A baseline written before a mode existed must fail that
        mode's gate rather than vacuously passing on empty tables."""
        full_only = {"metrics": {"a_per_sec": 100.0},
                     "determinism": {"events": 42}}
        fresh = self.fresh({"a_per_sec": 100.0}, {"events": 42})
        assert not bench_cli.check(full_only, fresh, "smoke", 0.25,
                                   out=lambda *_: None)
        smoke_only = {"smoke_metrics": {"a_per_sec": 10.0},
                      "smoke_determinism": {"events": 7}}
        assert not bench_cli.check(smoke_only, fresh, "full", 0.25,
                                   out=lambda *_: None)
