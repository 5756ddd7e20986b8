"""Trace export: serialize a run's history to JSON lines.

A finished simulation's :class:`~repro.txn.history.History` can be dumped
to a ``.jsonl`` file (one event per line) for external analysis —
plotting, diffing two runs, or archiving the evidence behind a benchmark
table.  The format is stable and self-describing: every line carries a
``"type"`` field (``txn`` / ``read`` / ``write`` / ``advancement``).

Round-tripping is supported for transaction records so sweeps can be
post-processed without re-running simulations.

Streaming runs, which never materialize a full history, can spill the
same ``txn`` / ``read`` lines *as transactions retire* through
:class:`TraceStreamWriter` — a retirement sink for
:class:`~repro.txn.history.StreamingHistory`.  The on-disk format is the
shared one, so :func:`load_txn_records` reads both kinds of trace.
"""

from __future__ import annotations

import json
import typing

from repro.txn.history import (
    AdvancementRecord,
    History,
    ReadEvent,
    TxnRecord,
)


def _txn_line(record: TxnRecord) -> dict:
    return {
        "type": "txn",
        "name": record.name,
        "kind": record.kind,
        "version": record.version,
        "submit_time": record.submit_time,
        "root_node": record.root_node,
        "local_commit_time": record.local_commit_time,
        "global_complete_time": record.global_complete_time,
        "aborted": record.aborted,
        "abort_reason": record.abort_reason,
        "compensated": record.compensated,
        "waits": record.waits,
    }


def export_history(history: History, path, include_ops: bool = True) -> int:
    """Write the history to ``path`` as JSON lines.

    Args:
        history: A finished run's history.
        path: Output file path (string or ``pathlib.Path``).
        include_ops: Also export per-operation read/write events (only
            present when the history was recorded with ``detail=True``).

    Returns:
        Number of lines written.
    """
    lines = 0
    with open(path, "w") as handle:
        for record in history.txns.values():
            handle.write(json.dumps(_txn_line(record)) + "\n")
            lines += 1
        for advancement in history.advancements:
            handle.write(json.dumps(_advancement_line(advancement)) + "\n")
            lines += 1
        if include_ops:
            for event in history.read_events:
                handle.write(json.dumps(_read_line(event)) + "\n")
                lines += 1
            for event in history.write_events:
                handle.write(json.dumps({
                    "type": "write",
                    "time": event.time,
                    "txn": event.txn,
                    "subtxn": event.subtxn,
                    "node": event.node,
                    "key": str(event.key),
                    "version": event.version,
                    "versions_written": event.versions_written,
                    "operation": repr(event.operation),
                    "compensating": event.compensating,
                }) + "\n")
                lines += 1
    return lines


def _read_line(event: ReadEvent) -> dict:
    return {
        "type": "read",
        "time": event.time,
        "txn": event.txn,
        "subtxn": event.subtxn,
        "node": event.node,
        "key": str(event.key),
        "version_requested": event.version_requested,
        "version_used": event.version_used,
        "value": _jsonable(event.value),
    }


def _advancement_line(record: AdvancementRecord) -> dict:
    return {
        "type": "advancement",
        "new_update_version": record.new_update_version,
        "started": record.started,
        "phase1_done": record.phase1_done,
        "phase2_done": record.phase2_done,
        "phase3_done": record.phase3_done,
        "gc_done": record.gc_done,
        "counter_polls": record.counter_polls,
    }


class TraceStreamWriter:
    """Spill-to-disk JSONL sink for a :class:`StreamingHistory`.

    Writes each transaction's ``txn`` line (and, when the history records
    detail, its ``read`` lines) at retirement, so disk — not memory —
    holds the full trace of an arbitrarily long run.  ``close()`` appends
    the advancement lines and returns the total line count.

    Usage::

        writer = TraceStreamWriter(path)
        history.add_retire_sink(writer.on_retire)
        ...  # run the experiment
        writer.close(history)
    """

    def __init__(self, path):
        self._handle = open(path, "w")
        self.lines = 0

    def on_retire(self, record: TxnRecord,
                  events: typing.Sequence[ReadEvent]) -> None:
        self._handle.write(json.dumps(_txn_line(record)) + "\n")
        self.lines += 1
        for event in events:
            self._handle.write(json.dumps(_read_line(event)) + "\n")
            self.lines += 1

    def close(self, history: typing.Optional[History] = None) -> int:
        """Flush, optionally appending ``history``'s advancement lines."""
        if history is not None:
            for advancement in history.advancements:
                self._handle.write(
                    json.dumps(_advancement_line(advancement)) + "\n")
                self.lines += 1
        self._handle.close()
        return self.lines


def _jsonable(value):
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    return repr(value)


def load_txn_records(path) -> typing.List[TxnRecord]:
    """Read back the transaction records from an exported trace."""
    records = []
    with open(path) as handle:
        for line in handle:
            data = json.loads(line)
            if data.get("type") != "txn":
                continue
            record = TxnRecord(
                name=data["name"],
                kind=data["kind"],
                version=data["version"],
                submit_time=data["submit_time"],
                root_node=data["root_node"],
                local_commit_time=data["local_commit_time"],
                global_complete_time=data["global_complete_time"],
                aborted=data["aborted"],
                abort_reason=data["abort_reason"],
                compensated=data["compensated"],
            )
            record.waits = dict(data["waits"])
            records.append(record)
    return records
