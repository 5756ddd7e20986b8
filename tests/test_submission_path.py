"""The workload -> submit -> arrive path.

* A root submitted to a live node arrives inline: no ``Message`` is
  built and no network counter moves.  At a crashed or backlogged node it
  queues in the mailbox and runs after recovery, in submission order.
* ``drive`` draws every spec's choices up front, builds the specs a
  batch ahead of the clock and keeps the arrivals off the event heap:
  one pending arrival per class, exactly the specs the workload's
  ``make_*`` would have built, and a run identical to the old ``drive``,
  which built every spec and scheduled every arrival at once with
  ``submit_at``.
* ``submit_at`` schedules at the exact absolute time.
"""

from __future__ import annotations

import dataclasses
import types
import weakref

import pytest

from repro.core import ThreeVSystem
from repro.errors import SimulationError
from repro.exp import ExperimentSpec, run_spec
from repro.faults import FaultPlan
from repro.runtime import node as node_module
from repro.sim import RngRegistry, Simulator
from repro.storage import Increment
from repro.txn import SubtxnSpec, TransactionSpec, WriteOp
from repro.workloads import runner
from repro.workloads.arrivals import BUILD_AHEAD, drive, poisson_arrivals
from repro.workloads.recording import RecordingConfig, RecordingWorkload

from tests.test_workload_reference import assert_same_tree, classification


def local_txn(name):
    return TransactionSpec(
        name=name,
        root=SubtxnSpec(node="p", ops=[WriteOp("x", Increment(1))]),
    )


def traffic(system):
    stats = system.network.stats
    return (stats.sent_by_kind, stats.retransmits, stats.dropped,
            stats.duplicated, stats.batches)


def arrival_order(system, node_id):
    """Record the transaction of every arrival at ``node_id``."""
    node = system.node(node_id)
    seen = []
    arrive = node._arrive

    def recording(instance, *progress):
        if not progress:
            seen.append(instance.txn.name)
        arrive(instance, *progress)

    node._arrive = recording
    return seen


class TestRootSubmission:
    def test_a_live_node_runs_the_root_inline(self, monkeypatch):
        system = ThreeVSystem(["p", "q"], seed=1)
        system.load("p", "x", 0)
        seen = arrival_order(system, "p")
        before = traffic(system)

        def no_message(*args, **kwargs):
            raise AssertionError("a root to a live node built a Message")

        monkeypatch.setattr(node_module, "Message", no_message)
        system.submit(local_txn("a"))
        assert seen == ["a"], "arrived inside submit, before any event ran"
        assert traffic(system) == before
        system.run_until_quiet(limit=100.0)
        assert system.history.txn("a").global_complete_time is not None
        assert traffic(system) == before

    def test_roots_at_a_crashed_node_run_after_recover_in_order(self):
        system = ThreeVSystem(["p", "q"], seed=1, faults=FaultPlan())
        system.load("p", "x", 0)
        seen = arrival_order(system, "p")
        system.run(until=1.0)
        system.crash("p")
        for name in ("a", "b"):
            system.submit(local_txn(name))
        assert seen == [] and len(system.node("p")._mailbox) == 2
        system.recover("p")
        # Thawed but still backlogged: a new root queues behind the rest.
        system.submit(local_txn("c"))
        assert seen == [] and len(system.node("p")._mailbox) == 3
        system.run(until=6.0)
        assert seen == ["a", "b", "c"]
        assert list(system.history.txns) == ["a", "b", "c"]
        assert system.node("p").store.read_max_leq("x", 10 ** 9) == 3


def old_drive(system, arrivals, draw, build):
    """``drive`` as it was: every spec built, and every arrival on the
    event heap, at once."""
    count = 0
    for index, time in enumerate(arrivals):
        system.submit_at(time, build(index, draw()))
        count += 1
    return count


#: The recording workload's transaction classes, in the runner's order.
CLASSES = ("recording", "inquiry", "audit", "correction")


class TestDrive:
    def test_at_most_one_pending_arrival_per_class(self):
        system = ThreeVSystem(["n0", "n1", "n2"], seed=2)
        workload = RecordingWorkload(
            RecordingConfig(nodes=["n0", "n1", "n2"], entities=8),
            RngRegistry(3))
        workload.install(system)
        rngs = RngRegistry(4)
        pending = system.sim.pending_count
        classes = [("u", 6.0, workload.draw_recording,
                    workload.build_recording),
                   ("r", 3.0, workload.draw_inquiry, workload.build_inquiry),
                   ("a", 0.5, workload.draw_audit, workload.build_audit)]
        submitted = 0
        for stream, rate, draw, build in classes:
            submitted += drive(
                system, poisson_arrivals(rngs, stream, rate, 20.0),
                draw, build)
        assert submitted > 100
        assert system.sim.pending_count - pending <= len(classes)
        system.run(until=20.0)
        system.stop_policy()
        system.run_until_quiet(limit=1000.0)
        assert system.submitted_count == submitted

    def test_each_spec_is_released_as_it_is_submitted(self):
        """Every choice is drawn at ``drive()`` and no spec is built; the
        clock reaching an arrival builds at most one batch from it, and
        each spec is released as it is submitted."""
        system = ThreeVSystem(["p"], seed=1)
        system.load("p", "x", 0)
        arrivals = BUILD_AHEAD + 3
        drawn, built = [], []

        def draw():
            drawn.append(len(drawn))
            return drawn[-1]

        def build(index, choice):
            assert choice == index
            spec = local_txn(f"t{index}")
            built.append(weakref.ref(spec))
            return spec

        def released():
            return [ref() is None for ref in built]

        times = [1.0 + index for index in range(arrivals)]
        assert drive(system, times, draw, build) == arrivals
        assert len(drawn) == arrivals and built == [], "built at drive()"
        system.run(until=1.5)
        assert released() == [True] + [False] * (BUILD_AHEAD - 1)
        system.run(until=BUILD_AHEAD - 0.5)
        assert released() == [True] * (BUILD_AHEAD - 1) + [False]
        system.run(until=BUILD_AHEAD + 0.5)
        assert released() == [True] * BUILD_AHEAD, "the next batch waits"
        system.run(until=BUILD_AHEAD + 1.5)
        assert released() == [True] * (BUILD_AHEAD + 1) + [False] * 2
        system.run(until=arrivals + 1.0)
        assert released() == [True] * arrivals

    @pytest.mark.parametrize("replication_factor", [1, 3])
    def test_the_batched_driver_builds_what_make_builds(
            self, replication_factor):
        """Drawn class by class up front and built in batches later, the
        specs are ``[make(i) for i in range(n)]`` of each class in turn:
        names, trees, ops and class, and the workload stream's state."""
        def workload():
            return RecordingWorkload(RecordingConfig(
                nodes=["n0", "n1", "n2", "n3", "n4"], entities=12,
                replication_factor=replication_factor, audit_entities=4,
                abort_fraction=0.3), RngRegistry(7))

        driven, made = workload(), workload()
        submitted = []
        system = types.SimpleNamespace(sim=Simulator(),
                                       submit=submitted.append)
        rngs = RngRegistry(8)
        counts = [
            drive(system, poisson_arrivals(rngs, kind, rate, 20.0),
                  getattr(driven, f"draw_{kind}"),
                  getattr(driven, f"build_{kind}"))
            for kind, rate in zip(CLASSES, (30.0, 15.0, 3.0, 2.0))
        ]
        assert counts[0] > 2 * BUILD_AHEAD and min(counts) > 10
        system.sim.run()
        assert len(submitted) == sum(counts)
        for kind, count in zip(CLASSES, counts):
            expected = [getattr(made, f"make_{kind}")(index)
                        for index in range(count)]
            prefix = expected[0].name[:4]
            specs = [spec for spec in submitted if spec.name[:4] == prefix]
            assert [spec.name for spec in specs] == [
                spec.name for spec in expected]
            for spec, reference in zip(specs, expected):
                assert_same_tree(spec.root, reference.root, spec.name)
                assert classification(spec) == classification(reference)
        assert driven._rng.getstate() == made._rng.getstate()
        assert driven.update_amounts == made.update_amounts
        assert driven.correction_entities == made.correction_entities

    @pytest.mark.parametrize("kwargs", [
        dict(protocol="3v", nodes=4, duration=40.0, update_rate=6.0,
             inquiry_rate=3.0, audit_rate=0.5, abort_fraction=0.2),
        dict(protocol="3v", nodes=5, duration=30.0, update_rate=6.0,
             inquiry_rate=2.0, audit_rate=0.3, replication_factor=3,
             crash_count=1, drop_rate=0.05, fault_seed=2),
        dict(protocol="3v", nodes=4, duration=30.0, update_rate=4.0,
             inquiry_rate=2.0, correction_rate=0.5),
        dict(protocol="2pc", nodes=4, duration=30.0, update_rate=4.0,
             inquiry_rate=2.0),
    ])
    def test_a_run_matches_the_old_drive(self, kwargs, monkeypatch):
        spec = ExperimentSpec(**kwargs)
        new = dataclasses.replace(run_spec(spec), wall_seconds=0.0)
        monkeypatch.setattr(runner, "drive", old_drive)
        old = dataclasses.replace(run_spec(spec), wall_seconds=0.0)
        assert new.sim_events == old.sim_events
        assert new.determinism_digest() == old.determinism_digest()
        assert new == old


class TestSubmitAt:
    def test_an_absolute_time_is_kept_exactly(self):
        system = ThreeVSystem(["p"], seed=1)
        system.load("p", "x", 0)
        system.run(until=0.12)
        # 0.12 + (1.2 - 0.12) == 1.2000000000000002: a relative delay
        # would move the submission off the time asked for.
        system.submit_at(1.2, local_txn("a"))
        system.run(until=2.0)
        assert system.history.txn("a").submit_time == 1.2

    def test_a_past_time_is_refused_as_past(self):
        system = ThreeVSystem(["p"], seed=1)
        system.run(until=3.0)
        with pytest.raises(SimulationError, match="in the past"):
            system.submit_at(2.5, local_txn("a"))
