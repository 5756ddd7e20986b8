"""The collector pause, and the invariant that makes it safe.

``run_recording_experiment`` and ``run_spec`` keep CPython's cyclic
collector off while they run (``workloads.runner.collector_paused``).
That is only sound while a run makes no cyclic garbage *per transaction*:
with the collector off a reference cycle is a leak that grows with the
run.  Four groups of tests:

* the invariant, for every registered protocol in four regimes — the
  unreachable objects a full collection finds while the result is still
  alive do not grow with the duration (a plugin registered later is
  covered by construction);
* the one general fix of the generator-process kernel, which the
  control plane ran on until it became callbacks and which the
  generator-driven differentials still run on (``Process`` in
  ``tests/reference_process.py``): an exception a process caught at its
  ``yield`` keeps no traceback, an unhandled one keeps all of it;
* the pause is scoped: it hands the collector back as it found it, on
  return and on error, nests (also when a decorated function re-enters
  itself), and starts no collection of its own;
* ``run_spec`` closes the system it ran, so the young collection the
  pause held back finds next to nothing to walk, wherever the
  interpreter starts it.
"""

import gc
import traceback

import pytest

from repro.errors import SpecError
from repro.exp import ExperimentSpec, run_spec
from repro.exp import summary as exp_summary
from repro.runtime.registry import PROTOCOLS
from repro.sim import Simulator
from repro.workloads.runner import collector_paused, run_recording_experiment
from tests.reference_process import Process, Timeout


@pytest.fixture(autouse=True)
def collector_as_found():
    """Every test here leaves the collector as the suite had it."""
    was_enabled = gc.isenabled()
    yield
    gc.set_debug(0)
    del gc.garbage[:]
    (gc.enable if was_enabled else gc.disable)()


def unreachable_after(run) -> int:
    """Objects a full collection finds unreachable once ``run()`` has
    returned, its return value still alive, with no collection before."""
    gc.collect()
    gc.disable()
    result = run()
    found = gc.collect()
    del result
    return found


# ----------------------------------------------------------------------
# No reference cycle per transaction, in any registered protocol
# ----------------------------------------------------------------------

#: The e2e benchmark's ``chaos_rf3`` fault mix.
CHAOS_RF3 = dict(
    drop_rate=0.05, dup_rate=0.05, crash_count=1, partition_count=2,
    coordinator_crashes=1, fault_seed=5, replication_factor=3,
)
REGIMES = {
    "fault_free": {},
    "corrections": dict(correction_rate=1.0),
    "chaos_rf3": CHAOS_RF3,
    "stream": dict(stream=1),
}
DURATION = 40.0
#: What a run may leave behind however long it is: a state machine killed
#: while it waits (a crashed coordinator's wave) is one small cycle
#: through the event it waited on.  The second run below adds some three hundred
#: transactions, so one cyclic object per ten of them would exceed this.
RUN_CONSTANT = 32


@pytest.mark.parametrize("regime", tuple(REGIMES))
@pytest.mark.parametrize("protocol", tuple(PROTOCOLS))
def test_unreachable_objects_do_not_grow_with_the_run(protocol, regime):
    def run(duration):
        return run_recording_experiment(
            protocol, nodes=4, duration=duration, seed=5, **REGIMES[regime])

    short = unreachable_after(lambda: run(DURATION))
    long = unreachable_after(lambda: run(2 * DURATION))
    assert long <= short + RUN_CONSTANT, (
        f"{protocol}/{regime}: {short} unreachable objects after "
        f"{DURATION:g} sim-s, {long} after {2 * DURATION:g}: something "
        "makes a reference cycle per transaction, which the collector "
        "pause turns into a leak")
    assert short <= RUN_CONSTANT


# ----------------------------------------------------------------------
# The general fix: a handled exception keeps no traceback
# ----------------------------------------------------------------------

def test_a_caught_event_failure_leaves_nothing_to_collect():
    sim = Simulator()
    caught = []

    def waiter(event):
        try:
            yield event
        except ValueError as error:
            caught.append(str(error))
        # Outlive the handler, as the two-phase engine's generators do.
        yield Timeout(sim, 1.0)

    def run():
        for index in range(50):
            event = sim.event()
            Process(sim, waiter(event))
            event.fail(ValueError(f"boom {index}"))
        sim.run()
        return sim

    assert unreachable_after(run) == 0
    assert len(caught) == 50


def test_a_caught_failure_that_ends_the_process_leaves_nothing_either():
    sim = Simulator()

    def waiter(event):
        try:
            yield event
        except ValueError:
            return

    def run():
        for _ in range(50):
            event = sim.event()
            Process(sim, waiter(event))
            event.fail(ValueError("boom"))
        sim.run()
        return sim

    assert unreachable_after(run) == 0


def test_an_unhandled_failure_still_surfaces_with_its_traceback():
    sim = Simulator()

    def waiter(event):
        yield event

    event = sim.event()
    process = Process(sim, waiter(event))
    event.fail(ValueError("bug in model"))
    with pytest.raises(ValueError) as raised:
        sim.run()
    assert process.exception is raised.value
    frames = [frame.name
              for frame in traceback.extract_tb(raised.value.__traceback__)]
    assert "waiter" in frames


# ----------------------------------------------------------------------
# The pause is scoped
# ----------------------------------------------------------------------

@pytest.mark.parametrize("enabled", [True, False])
def test_pause_hands_the_collector_back_as_it_found_it(enabled):
    (gc.enable if enabled else gc.disable)()
    threshold = gc.get_threshold()
    seen = []
    with collector_paused():
        seen.append(gc.isenabled())
        with collector_paused():
            seen.append(gc.isenabled())
        seen.append(gc.isenabled())
    assert seen == [False, False, False]
    assert gc.isenabled() is enabled

    run_recording_experiment("3v", duration=5.0)
    assert gc.isenabled() is enabled
    with pytest.raises(SpecError):
        run_recording_experiment("3v", nodes=0, duration=5.0)
    assert gc.isenabled() is enabled
    with pytest.raises(SpecError):
        run_spec(ExperimentSpec("3v", nodes=0, duration=5.0))
    assert gc.isenabled() is enabled
    assert gc.get_threshold() == threshold


def test_run_spec_keeps_the_pause_over_audit_and_summary(monkeypatch):
    seen = {}

    def spy(name):
        real = getattr(exp_summary, name)

        def wrapper(*args, **kwargs):
            seen[name] = gc.isenabled()
            return real(*args, **kwargs)

        monkeypatch.setattr(exp_summary, name, wrapper)

    spy("audit_result")
    spy("summarize")
    gc.enable()
    run_spec(ExperimentSpec("3v", duration=5.0))
    # run_recording_experiment's own pause ended before either ran.
    assert seen == {"audit_result": False, "summarize": False}
    assert gc.isenabled()


def test_a_decorated_function_may_reenter_itself():
    seen = []

    @collector_paused()
    def nested(depth):
        seen.append(gc.isenabled())
        if depth:
            nested(depth - 1)
        seen.append(gc.isenabled())

    gc.enable()
    nested(2)
    assert seen == [False] * 6
    assert gc.isenabled()


def test_the_pause_starts_no_collection_inside_run_spec():
    started = []

    def watch(phase, info):
        if phase == "start":
            started.append(info["generation"])

    spec = ExperimentSpec("3v", duration=20.0)
    gc.enable()
    gc.callbacks.append(watch)
    try:
        summary = run_spec(spec)
        inside = list(started)
    finally:
        gc.callbacks.remove(watch)
    assert summary.txn_count > 100
    # Outside the pause this run starts some sixty collections.  The one
    # young collection the pause held back is the interpreter's to place:
    # CPython 3.11 starts it at the first tracked allocation after
    # gc.enable(), which is the caller's (none inside, as observed there);
    # from 3.12 on it runs at the next eval-breaker check after that
    # allocation.  Either way it is one, and young.
    assert inside in ([], [0])


# ----------------------------------------------------------------------
# run_spec closes the system: the run is freed by reference counting
# ----------------------------------------------------------------------

@pytest.mark.parametrize("regime", ["fault_free", "corrections", "chaos_rf3"])
@pytest.mark.parametrize("protocol", tuple(PROTOCOLS))
def test_run_spec_leaves_the_run_to_reference_counting(protocol, regime):
    spec = ExperimentSpec(
        protocol, nodes=4, duration=DURATION, seed=5, **REGIMES[regime])
    gc.collect()
    gc.disable()
    summary = run_spec(spec)
    left = gc.collect()
    # Not closed, the dead system is one cycle holding every record of the
    # run: 3,000 to 25,000 objects here.  Closed, what is left is what was
    # a cycle by itself: a transaction that never finished (`manual-sync`
    # under crashes strands most of them) is a blocked wait: the state it
    # keeps and the callback on the event it awaits.
    stranded = summary.submitted - (
        summary.committed_updates + summary.committed_reads
        + summary.committed_noncommuting)
    assert left <= RUN_CONSTANT + 5 * stranded, (
        f"{protocol}/{regime}: {left} objects left to the collector after "
        "run_spec: something that System.close() does not empty still "
        "holds the run in a cycle")


def test_a_closed_system_keeps_what_was_taken_from_it():
    result = run_recording_experiment("3v", duration=10.0)
    history, stats = result.history, result.network.stats
    txns = history.total_txns
    result.system.close()
    assert not vars(result.system)
    assert history.total_txns == txns > 0 and stats.total_sent > 0
