"""Differential oracle for the callback node runtime.

``GeneratorNode`` below is the node runtime as it was before
:class:`repro.runtime.node.ProtocolNode` became callback-driven, kept as a
*test-only* reference: one ``Process`` (``tests/reference_process.py``)
per subtransaction wrapping the ``run_subtxn`` generator, the two
generator ``local_service`` bodies, and a ``_run`` process blocked on a
``get()`` of its mailbox (with the batched drain).  ``Store.get`` has left
``src/``, so the mailbox's consumer feeds that getter here, as the old
``Store.put`` did.  Plugin hooks that wait now return a ``wait(then)``
callable instead of a generator; the reference sits each one out inline
(``sit_out``), where it used to ``yield from`` the hook's generator, and
skips an optional hook its plugin left ``None``.
Patched in for the class
:class:`repro.runtime.system.System` builds its nodes from, it must
produce — on every protocol, with and without faults — exactly the
per-transaction records and the summary the callback node produces.
Only the scheduled-callback count (``sim_events``) may differ: removing
those callbacks is the point of the callback runtime.
"""

from __future__ import annotations

import collections
import dataclasses

import pytest

import repro.runtime.system
import repro.txn.history
from repro.core.node import ThreeVPlugin
from repro.exp import ExperimentSpec
from repro.exp.summary import audit_result, summarize
from repro.net.message import MessageKind
from repro.runtime import PROTOCOLS
from repro.runtime.node import ProtocolNode
from repro.sim.events import Event
from repro.txn.history import TxnKind, WaitReason
from repro.workloads.runner import run_recording_experiment
from tests.reference_process import Process, Timeout, request, sit_out


def _classify(instance):
    """The former ``ProtocolPlugin.classify`` hook body."""
    if instance.txn.is_read_only:
        return TxnKind.READ
    if instance.txn.is_well_behaved:
        return TxnKind.UPDATE
    return TxnKind.NONCOMMUTING


def _local_service(plugin, node, instance):
    """The two former ``local_service`` hook bodies (3V's and the default)."""
    spec = instance.spec
    if isinstance(plugin, ThreeVPlugin):
        service = node.config.op_service.sample(node._service_rng)
        if spec.ops:
            yield Timeout(node.sim, service * len(spec.ops))
    elif spec.ops:
        service = node.rngs.sample("node.service", node.config.op_service)
        yield Timeout(node.sim, service * len(spec.ops))


class GeneratorNode(ProtocolNode):
    """The generator-driven node loop, as the reference implementation."""

    def __init__(self, system, node_id):
        super().__init__(system, node_id)
        self._inbox = collections.deque()
        self._getter = None
        self._mailbox.consume(self._put)
        self._main = Process(self.sim, self._run(), name=f"node-{node_id}")

    def _put(self, message):
        """The mailbox's consumer: wake the getter, or queue."""
        if self._getter is not None:
            getter, self._getter = self._getter, None
            getter.succeed(message)
        else:
            self._inbox.append(message)

    def _get(self):
        """The removed ``Store.get``."""
        event = Event(self.sim)
        if self._inbox:
            event.succeed(self._inbox.popleft())
        else:
            self._getter = event
        return event

    def _take_nowait(self):
        """The removed ``Store.take_nowait``."""
        return self._inbox.popleft() if self._inbox else None

    def _run(self):
        if not self.network.batch_delivery:
            while True:
                message = yield self._get()
                self._dispatch(message)
        while True:
            message = yield self._get()
            self._dispatch(message)
            message = self._take_nowait()
            while message is not None:
                self._dispatch(message)
                message = self._take_nowait()

    def _dispatch(self, message):
        kind = message.kind
        if kind == MessageKind.SUBTXN_REQUEST or kind == MessageKind.COMPENSATION:
            instance = message.payload
            Process(self.sim, self.run_subtxn(instance),
                    name=f"{self.node_id}:{instance.sid}")
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
            placement.read_served(self.node_id)

        kind = _classify(instance)

        takeover = plugin.takeover and plugin.takeover(self, instance, kind)
        if takeover is not None:
            yield from sit_out(self.sim, takeover)
            return

        if instance.is_root:
            gate = plugin.admit_root(self, instance, kind)
            if gate is not None:
                yield from sit_out(self.sim, gate)
        else:
            plugin.on_descendant(self, instance, kind)

        self._live.add(instance)

        pre = plugin.pre_execute and plugin.pre_execute(self, instance, kind)
        if pre is not None:
            yield from sit_out(self.sim, pre)

        queued_at = self.sim.now
        yield request(self.executor)
        self.history.waited(
            instance.txn.name, WaitReason.EXECUTOR, self.sim.now - queued_at
        )
        try:
            yield from _local_service(plugin, self, instance)
            if instance.txn.wants_abort:
                tombstoned = self._apply_ops(instance, kind)
            else:
                plugin.execute_ops(self, instance, kind)
                tombstoned = False
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
                self._fan_out_compensation(instance, skip=instance.comp_skip)
        elif aborting:
            parent_sid = instance.compensation_tree().parent[instance.sid]
            if parent_sid is not None:
                self._send_compensator(instance, parent_sid)
        elif not tombstoned:
            self._dispatch_children(instance)

        if instance.is_root:
            self.history.locally_committed(instance.txn.name, self.sim.now)

        if plugin.on_subtxn_executed is not None:
            plugin.on_subtxn_executed(self, instance)

        instance.executed = True
        if not instance.outstanding_children:
            self._complete_instance(instance)

    def _fan_out_compensation(self, instance, skip):
        for neighbour_sid in instance.tree.neighbours(instance.sid):
            if neighbour_sid != skip:
                self._send_compensator(instance, neighbour_sid)


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
    report = audit_result(result)
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


#: History mode -> (run arguments, builds ReadEvents, builds WriteEvents).
#: Only an exported trace of a retained history reads write events.
EVENT_MODES = {
    "materialized_detail": (dict(detail=True), True, False),
    "materialized_trace": (dict(detail=True, trace_path="trace.jsonl"),
                           True, True),
    "detail_off": (dict(detail=False), False, False),
    "streamed_detail": (dict(detail=True, stream=1), True, False),
    "streamed_trace": (dict(detail=True, stream=1,
                            trace_path="trace.jsonl"), True, False),
    "streamed_detail_off": (dict(detail=False, stream=1), False, False),
}


@pytest.mark.parametrize("mode", EVENT_MODES)
@pytest.mark.parametrize("protocol", tuple(PROTOCOLS))
def test_no_event_is_built_for_a_history_that_drops_it(protocol, mode,
                                                       monkeypatch,
                                                       tmp_path):
    """The run declares which events its readers need and the history
    builds only those — on every protocol, so no baseline pays for
    objects the 3V plugin skips.  The history is the one place that
    builds either kind."""
    built = {"ReadEvent": 0, "WriteEvent": 0}

    def counting(cls):
        def build(*args, **kwargs):
            built[cls.__name__] += 1
            return cls(*args, **kwargs)
        return build

    for name in built:
        monkeypatch.setattr(repro.txn.history, name,
                            counting(getattr(repro.txn.history, name)))
    arguments, reads_built, writes_built = EVENT_MODES[mode]
    arguments = dict(arguments)
    trace = arguments.pop("trace_path", None)
    spec = ExperimentSpec(protocol, **{**BASE, **arguments,
                                       "abort_fraction": 0.3,
                                       "correction_rate": 1.0})
    monkeypatch.chdir(tmp_path)
    result = run_recording_experiment(protocol, trace_path=trace,
                                      **spec.run_kwargs())
    assert result.history.count() > 50
    assert (built["ReadEvent"] > 0) == reads_built
    assert (built["WriteEvent"] > 0) == writes_built
    assert result.history.keeps_reads == reads_built
    assert result.history.keeps_writes == writes_built
