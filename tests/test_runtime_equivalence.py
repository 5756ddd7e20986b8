"""Differential oracle for the callback node runtime.

``GeneratorNode`` below is the node runtime as it was before
:class:`repro.runtime.node.ProtocolNode` became callback-driven, kept
verbatim as a *test-only* reference: a ``_run`` process blocked on
``mailbox.get()`` (with the batched drain), one ``Process`` per
subtransaction wrapping the ``run_subtxn`` generator, and the two
generator ``local_service`` bodies.  Patched in for the class
:class:`repro.runtime.system.System` builds its nodes from, it must
produce — on every protocol, with and without faults — exactly the
per-transaction records and the summary the callback node produces.
Only the scheduled-callback count (``sim_events``) may differ: removing
those callbacks is the point of the callback runtime.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.core.nc3v
import repro.core.node
import repro.runtime.plugin
import repro.runtime.system
import repro.runtime.twophase
from repro.core.node import ThreeVPlugin
from repro.exp import ExperimentSpec
from repro.exp.summary import audit_result, summarize
from repro.net.message import MessageKind
from repro.runtime import PROTOCOLS
from repro.runtime.node import ProtocolNode
from repro.txn.history import WaitReason
from repro.txn.runtime import CompletionTracker
from repro.workloads.runner import run_recording_experiment


def _local_service(plugin, node, instance):
    """The two former ``local_service`` hook bodies (3V's and the default)."""
    spec = instance.spec
    if isinstance(plugin, ThreeVPlugin):
        service = node.config.op_service.sample(node._service_rng)
        if spec.ops:
            yield node.sim.timeout(service * len(spec.ops))
    elif spec.ops:
        service = node.rngs.sample("node.service", node.config.op_service)
        yield node.sim.timeout(service * len(spec.ops))


class GeneratorNode(ProtocolNode):
    """The generator-driven node loop, as the reference implementation."""

    def __init__(self, system, node_id):
        super().__init__(system, node_id)
        self._mailbox.consume(None)  # back to getters: _run blocks on get()
        self._main = self.sim.process(self._run(), name=f"node-{node_id}")

    def _run(self):
        mailbox = self._mailbox
        if not self.network.batch_delivery:
            while True:
                message = yield mailbox.get()
                self._dispatch(message)
        take_nowait = mailbox.take_nowait
        while True:
            message = yield mailbox.get()
            self._dispatch(message)
            message = take_nowait()
            while message is not None:
                self._dispatch(message)
                message = take_nowait()

    def _dispatch(self, message):
        kind = message.kind
        if kind == MessageKind.SUBTXN_REQUEST or kind == MessageKind.COMPENSATION:
            instance = message.payload
            self.sim.process(
                self.run_subtxn(instance),
                name=f"{self.node_id}:{instance.sid}",
            )
        else:
            super()._dispatch(message)

    def run_subtxn(self, instance):
        plugin = self.plugin

        placement = self.system.placement
        if placement is not None and instance.txn.is_read_only:
            while True:
                gate = placement.read_gate(self.node_id)
                if gate is None:
                    break
                yield gate
            placement.note_read_served(self.node_id)

        kind = plugin.classify(instance)

        takeover = plugin.takeover(self, instance, kind)
        if takeover is not None:
            yield from takeover
            return

        if instance.is_root:
            gate = plugin.admit_root(self, instance, kind)
            if gate is not None:
                yield from gate
        else:
            plugin.on_descendant(self, instance, kind)

        tracker = CompletionTracker(instance)
        self._trackers[instance.instance_key] = tracker

        pre = plugin.pre_execute(self, instance, kind)
        if pre is not None:
            yield from pre

        queued_at = self.sim.now
        yield self.executor.request()
        self.history.waited(
            instance.txn.name, WaitReason.EXECUTOR, self.sim.now - queued_at
        )
        try:
            yield from _local_service(plugin, self, instance)
            tombstoned = self._apply_ops(instance, kind)
        finally:
            self.executor.release()

        aborting = (
            instance.spec.abort_here and not instance.compensating
            and not tombstoned
        )
        if aborting:
            plugin.apply_inverses(self, instance)
            self.history.aborted(instance.txn.name, self.sim.now, "requested")
            self.history.compensated(instance.txn.name)

        if instance.compensating:
            if not tombstoned:
                self._fan_out_compensation(
                    instance, tracker, skip=instance.comp_skip
                )
        elif aborting:
            parent_sid = instance.index.parent[instance.sid]
            if parent_sid is not None:
                self._send_compensator(instance, tracker, parent_sid)
        elif not tombstoned:
            self._dispatch_children(instance, tracker)

        if instance.is_root:
            self.history.locally_committed(instance.txn.name, self.sim.now)

        plugin.on_subtxn_executed(self, instance)

        tracker.executed = True
        if tracker.complete:
            self._complete_instance(instance)

    def _fan_out_compensation(self, instance, tracker, skip):
        for neighbour_sid in instance.index.neighbours(instance.sid):
            if neighbour_sid != skip:
                self._send_compensator(instance, tracker, neighbour_sid)


#: Summary fields that are not simulation outcomes (the scheduled-callback
#: count, host time, memory).
NOT_OUTCOMES = ("sim_events", "wall_seconds", "peak_tracemalloc_bytes")

BASE = dict(nodes=4, duration=24.0, update_rate=6.0, inquiry_rate=4.0,
            audit_rate=0.5, entities=20, seed=5, advancement_period=6.0)

#: A slow serial executor for the batched scenario, so callback waiters
#: queue and are granted among same-tick deliveries (``build_system``
#: arguments; the spec has no field for them).
SLOW_EXECUTOR = dict(op_service=0.04, executor_capacity=1)

SCENARIOS = {
    "fault_free": {},
    "batch_delivery": dict(batch_delivery=1, latency_jitter=0.0),
    "chaos_rf3": dict(drop_rate=0.05, dup_rate=0.05, crash_count=1,
                      partition_count=1, coordinator_crashes=1,
                      fault_seed=3, replication_factor=3),
    "mixed_nc3v": dict(correction_rate=1.0),
    "abort_overtake": dict(abort_fraction=0.5, latency_jitter=1.9, span=3,
                           update_rate=12.0),
}


def run(spec, node_class, monkeypatch):
    kwargs = spec.run_kwargs()
    if spec.batch_delivery:
        kwargs.update(SLOW_EXECUTOR)
    with monkeypatch.context() as patch:
        patch.setattr(repro.runtime.system, "ProtocolNode", node_class)
        result = run_recording_experiment(spec.protocol, **kwargs)
    assert all(type(node) is node_class
               for node in result.system.nodes.values())
    report = audit_result(
        result, check_snapshots=spec.protocol == "3v" and spec.detail)
    summary = summarize(spec, result, report).to_dict()
    for field in NOT_OUTCOMES:
        del summary[field]
    records = {name: dataclasses.asdict(record)
               for name, record in result.history.txns.items()}
    nodes = result.system.nodes.values()
    # Not the executors' total_waits: a request arriving in the very tick
    # a holder releases is granted at once or after a zero-length wait
    # depending on which of the two the scheduler runs first, and the
    # callback node reaches the executor three callbacks earlier in its
    # tick than the generator node does.  The time waited is the same.
    evidence = {
        "tombstones": sum(node.tombstones_created for node in nodes),
        "executor_wait_time": sum(node.executor.total_wait_time
                                  for node in nodes),
    }
    return records, summary, evidence, result.system.sim.scheduled_count


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("protocol", tuple(PROTOCOLS))
def test_callback_node_matches_generator_node(protocol, scenario,
                                              monkeypatch):
    spec = ExperimentSpec(protocol, **{**BASE, **SCENARIOS[scenario]})
    records, summary, evidence, events = run(spec, ProtocolNode, monkeypatch)
    ref_records, ref_summary, ref_evidence, ref_events = run(
        spec, GeneratorNode, monkeypatch)

    assert len(records) > 50
    assert records.keys() == ref_records.keys()
    for name, record in records.items():
        assert record == ref_records[name], name
    assert summary == ref_summary
    assert evidence == ref_evidence
    assert events < ref_events

    if scenario == "batch_delivery":
        assert summary["batched_messages"] > 0
        assert evidence["executor_wait_time"] > 0
    elif scenario == "chaos_rf3":
        assert summary["crashes"] > 0 and summary["partitions_cut"] > 0
        if protocol == "3v":
            assert summary["coordinator_crashes"] == 1
    elif scenario == "mixed_nc3v":
        assert summary["committed_noncommuting"] > 0
    elif scenario == "abort_overtake":
        assert summary["aborted"] > 0
        if protocol != "2pc":  # 2PC rolls back from undo logs instead
            assert evidence["tombstones"] > 0, "no compensation overtake"


#: Every module that builds a per-operation history event.
EVENT_SITES = (repro.runtime.plugin, repro.runtime.twophase,
               repro.core.node, repro.core.nc3v)

#: History mode -> (spec fields, builds ReadEvents, builds WriteEvents).
EVENT_MODES = {
    "materialized_detail": (dict(detail=True), True, True),
    "detail_off": (dict(detail=False), False, False),
    "streamed_detail": (dict(detail=True, stream=1), True, False),
    "streamed_detail_off": (dict(detail=False, stream=1), False, False),
}


@pytest.mark.parametrize("mode", EVENT_MODES)
@pytest.mark.parametrize("protocol", tuple(PROTOCOLS))
def test_no_event_is_built_for_a_history_that_drops_it(protocol, mode,
                                                       monkeypatch):
    """A ``ReadEvent`` is built only under ``detail`` and a ``WriteEvent``
    only for a history that ``keeps_writes`` — on every protocol, so no
    baseline pays for objects the 3V plugin skips."""
    built = {"ReadEvent": 0, "WriteEvent": 0}

    def counting(cls):
        def build(*args, **kwargs):
            built[cls.__name__] += 1
            return cls(*args, **kwargs)
        return build

    for module in EVENT_SITES:
        for name in built:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(getattr(module, name)))
    fields, reads_built, writes_built = EVENT_MODES[mode]
    spec = ExperimentSpec(protocol, **{**BASE, **fields,
                                       "abort_fraction": 0.3,
                                       "correction_rate": 1.0})
    result = run_recording_experiment(protocol, **spec.run_kwargs())
    assert result.history.count() > 50
    assert (built["ReadEvent"] > 0) == reads_built
    assert (built["WriteEvent"] > 0) == writes_built
    assert result.history.keeps_writes == writes_built
