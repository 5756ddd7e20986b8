"""Tier-1 coverage of the determinism gate, ``tools/golden.py``.

Runs the gate's ``--check --smoke`` once: every table but the full-size
one is computed fresh and compared key by key with the committed
``GOLDEN.json``.  Also checks that the committed file is well-formed and
that the gate logic gates.

``pytest -m benchsmoke`` selects the tests that run the smoke gate.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import golden  # noqa: E402


@pytest.fixture(scope="module")
def committed():
    return json.loads(golden.GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def fresh():
    return golden.run(smoke=True)


@pytest.mark.benchsmoke
class TestSmokeSuite:
    def test_scaling_cells_present_in_digest(self, fresh):
        cells = fresh["smoke_determinism"]
        for nodes in (4, 8, 16):
            for key in (f"scaling_events_{nodes:02d}",
                        f"scaling_events_batched_{nodes:02d}",
                        f"scaling_messages_{nodes:02d}",
                        f"scaling_advancement_runs_{nodes:02d}"):
                assert key in cells, key
            assert (cells[f"scaling_events_batched_{nodes:02d}"]
                    < cells[f"scaling_events_{nodes:02d}"])

    def test_volume_cells_present_in_digest(self, fresh):
        """The streaming volume cells ride along with bit-stable counts
        (``run_volume`` itself raises past the hard 1.5x memory bar)."""
        cells = fresh["smoke_determinism"]
        for cell in ("small", "large"):
            for key in (f"volume_events_{cell}", f"volume_txns_{cell}"):
                assert key in cells, key
        assert cells["volume_txns_large"] > cells["volume_txns_small"]
        assert "volume_differential_txns" in cells

    def test_replication_cells_present_in_digest(self, fresh):
        """The replication cells ride along: bit-stable counts per rf,
        the same transactions at every rf (only the fan-out differs),
        strictly growing message traffic, and the rf=1 bit-identity
        digest pin."""
        cells = fresh["smoke_determinism"]
        assert "repl_rf1_digest" in cells
        for rf in (1, 2, 3):
            for key in (f"repl_events_rf{rf}", f"repl_txns_rf{rf}",
                        f"repl_messages_rf{rf}"):
                assert key in cells, key
            assert cells[f"repl_txns_rf{rf}"] == cells["repl_txns_rf1"]
        assert (cells["repl_messages_rf1"] < cells["repl_messages_rf2"]
                < cells["repl_messages_rf3"])

    def test_e2e_workload_is_deterministic(self, fresh):
        """A second run in the same process reproduces the recording
        cells; the ``e2e`` digests and the CLI hashes come from fresh
        runs too, so a process-state leak shows up against the file."""
        again = golden.recording_cells("smoke")
        for key, value in again.items():
            assert fresh["smoke_determinism"][key] == value


class TestCommittedBaseline:
    @pytest.mark.benchsmoke
    def test_determinism_digest_matches_committed(self, committed, fresh):
        """``golden.py --check --smoke``: every key but the full-size
        table's matches ``GOLDEN.json`` exactly."""
        assert golden.changes(committed, fresh, smoke=True) == []

    def test_schema(self, committed):
        assert set(committed) == {"determinism", "smoke_determinism",
                                  "e2e", "summary", "summary_events", "cli"}
        assert len(committed["e2e"]) == 40
        assert set(committed["summary"]) == set(golden.PROTOCOLS)
        assert set(committed["summary_events"]) == set(golden.PROTOCOLS)
        assert all(isinstance(events, int) and events > 0
                   for events in committed["summary_events"].values())
        commands = [k for k in committed["cli"] if k.startswith("repro ")]
        assert len(commands) == len(golden.COMMANDS) >= 9
        assert all(trace in committed["cli"] for trace in golden.TRACES)
        refused = {f"repro {command}" for command in golden.REFUSED}
        failed = {f"repro {command}" for command in golden.FAILED_AUDITS}
        assert refused | failed <= set(commands)
        assert all(committed["cli"][k]["exit"] == (
            2 if k in refused else 1 if k in failed else 0)
            for k in commands)

    def test_hotpath_tables_carried_over(self, committed):
        """The ``determinism`` and ``smoke_determinism`` tables are the
        deleted ``BENCH_hotpath.json``'s, every key with its value: their
        canonical JSON hashes as that file's two tables did, computed
        from its last committed version with::

            json.dumps({t: d[t] for t in ("determinism",
                        "smoke_determinism")}, sort_keys=True)

        A change that re-baselines either table on purpose retires this
        test and says so."""
        tables = {t: committed[t] for t in ("determinism",
                                            "smoke_determinism")}
        canonical = json.dumps(tables, sort_keys=True).encode()
        assert hashlib.sha256(canonical).hexdigest() == (
            "63c91ccf5b2062fb4e668cd204a0d746f15c823a9133bac0a573433badc4660b")


class TestCheckGate:
    """``check`` logic, driven synthetically."""

    GOLDEN = {
        "determinism": {"events": 42, "txns": 9},
        "smoke_determinism": {"events": 7},
    }

    @staticmethod
    def passes(committed, fresh, smoke):
        return golden.check(committed, fresh, smoke, out=lambda *_: None)

    def test_fails_on_determinism_break(self):
        smoke_table = {"smoke_determinism": {"events": 7}}
        assert self.passes(self.GOLDEN, dict(
            smoke_table, determinism={"events": 42, "txns": 9}), False)
        assert not self.passes(self.GOLDEN, dict(
            smoke_table, determinism={"events": 43, "txns": 9}), False)
        # A committed cell the fresh run no longer produces is a break too.
        assert not self.passes(self.GOLDEN, dict(
            smoke_table, determinism={"events": 42}), False)

    def test_fails_on_uncommitted_key(self):
        """A cell the fresh run produces and the file lacks fails: it
        would otherwise pass ungated until the next re-baseline."""
        assert not self.passes(self.GOLDEN, {
            "determinism": {"events": 42, "txns": 9, "messages": 5},
            "smoke_determinism": {"events": 7}}, False)
        assert not self.passes(self.GOLDEN, {
            "smoke_determinism": {"events": 7, "messages": 5}}, True)

    def test_smoke_mode_uses_smoke_tables(self):
        assert self.passes(self.GOLDEN, {"smoke_determinism": {"events": 7}},
                           True)
        assert not self.passes(self.GOLDEN,
                               {"smoke_determinism": {"events": 8}}, True)

    def test_smoke_never_compares_against_full_tables(self):
        """Like-for-like only: a smoke run never reads the full-size
        table, and the full table's values in the smoke table fail."""
        assert self.passes(self.GOLDEN, {"smoke_determinism": {"events": 7}},
                           True)
        assert not self.passes(self.GOLDEN, {
            "smoke_determinism": {"events": 42, "txns": 9}}, True)

    def test_fails_when_baseline_lacks_mode_tables(self):
        """A file written before a table existed fails that table's gate
        rather than vacuously passing on an empty one."""
        full_only = {"determinism": {"events": 42}}
        assert not self.passes(full_only, {"smoke_determinism": {"events": 7}},
                               True)
        smoke_only = {"smoke_determinism": {"events": 7}}
        assert not self.passes(smoke_only, {
            "determinism": {"events": 42},
            "smoke_determinism": {"events": 7}}, False)
