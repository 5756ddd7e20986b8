"""Tests for trace export / reload."""

import json

from repro.analysis import export_history, load_txn_records
from repro.analysis.tracefile import _jsonable
from repro.storage import Record
from repro.workloads import run_recording_experiment


def small_run(trace_path=None):
    return run_recording_experiment(
        "3v", nodes=3, duration=8.0, update_rate=3.0, inquiry_rate=2.0,
        audit_rate=0.0, entities=10, span=2, seed=2, trace_path=trace_path,
    )


def line_types(path):
    return [json.loads(line)["type"] for line in path.read_text().splitlines()]


class TestExport:
    def test_every_line_is_valid_json_with_type(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        result = small_run(path)
        types = set(line_types(path))
        assert "txn" in types
        assert "read" in types
        assert "write" in types
        # The run's trace is the export of the history it kept.
        again = tmp_path / "again.jsonl"
        written = export_history(result.history, again)
        assert again.read_text() == path.read_text()
        assert written == len(path.read_text().splitlines()) > 0

    def test_ops_can_be_omitted(self, tmp_path):
        """The export writes the event kinds the history kept."""
        full = tmp_path / "full.jsonl"
        small_run(full)
        # Without a trace the run keeps reads for its audit, no writes.
        slim = tmp_path / "slim.jsonl"
        result = small_run()
        assert result.history.keeps_reads
        assert not result.history.keeps_writes
        export_history(result.history, slim)
        assert slim.stat().st_size < full.stat().st_size
        assert "read" in line_types(slim)
        assert set(line_types(slim)) <= {"txn", "advancement", "read"}
        assert [t for t in line_types(full) if t != "write"] == (
            line_types(slim))

    def test_a_read_observation_log_exports_as_its_list(self):
        log = Record(("rec-2", 0)).apply(Record(("rec-1", 1)).apply(()))
        assert _jsonable(log) == [["rec-1", 1], ["rec-2", 0]]

    def test_advancements_exported(self, tmp_path):
        result = small_run()
        result.system.advance_versions()
        result.system.run_until_quiet()
        path = tmp_path / "trace.jsonl"
        export_history(result.history, path)
        advancements = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if json.loads(line)["type"] == "advancement"
        ]
        assert advancements
        assert advancements[0]["counter_polls"] >= 2


class TestRoundTrip:
    def test_txn_records_survive_reload(self, tmp_path):
        result = small_run()
        path = tmp_path / "trace.jsonl"
        export_history(result.history, path)
        reloaded = load_txn_records(path)
        originals = result.history.txns
        assert len(reloaded) == len(originals)
        for record in reloaded:
            original = originals[record.name]
            assert record.kind == original.kind
            assert record.version == original.version
            assert record.submit_time == original.submit_time
            assert record.local_commit_time == original.local_commit_time
            assert record.waits == original.waits

    def test_reloaded_records_work_with_metrics(self, tmp_path):
        from repro.analysis import LatencySummary

        result = small_run()
        path = tmp_path / "trace.jsonl"
        export_history(result.history, path)
        reloaded = load_txn_records(path)
        latencies = [
            record.local_latency for record in reloaded
            if record.local_latency is not None
        ]
        summary = LatencySummary.of(latencies)
        assert summary.count > 0
