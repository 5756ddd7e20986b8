"""Micro-benchmarks of the substrate itself.

Not a paper artefact — these keep the simulator honest as a measurement
instrument: they report how many simulated events, store writes, and
whole transactions per wall-second the substrate sustains, so regressions
in the kernel show up before they distort experiment runtimes.
"""

from repro.sim import Simulator
from repro.storage import Increment, MVStore
from repro.storage.counters import CounterTable
from repro.workloads import run_recording_experiment


def drain_kernel(events: int = 20_000) -> float:
    """A timer chain: each callback schedules the next one 1 ms later."""
    sim = Simulator()

    def tick(left):
        if left:
            sim.schedule(0.001, tick, left - 1)

    sim.schedule(0.001, tick, events - 1)
    sim.run()
    return sim.now


def hammer_store(store_class, writes: int = 20_000):
    store = store_class()
    store.load("k", 0)
    op = Increment(1)
    for _ in range(writes):
        store.write("k", 1, op)
    return store.get_exact("k", 1)


def hammer_counters(incs: int = 20_000) -> int:
    """The 3V bookkeeping inner loop: every subtransaction bumps a request
    counter at its sender and a completion counter at its executor."""
    table = CounterTable("p")
    table.ensure_version(1)
    inc_request, inc_completion = table.inc_request, table.inc_completion
    for _ in range(incs):
        inc_request(1, "q")
        inc_completion(1, "q")
    return table.request_count(1, "q")


def small_experiment():
    return run_recording_experiment(
        "3v", nodes=4, duration=20.0, update_rate=10.0, inquiry_rate=5.0,
        audit_rate=0.1, entities=40, span=2, seed=3, detail=False,
    )


def test_kernel_event_throughput(benchmark):
    result = benchmark(drain_kernel)
    assert result > 0


def test_mvstore_write_throughput(benchmark):
    assert benchmark(hammer_store, MVStore) == 20_000


def test_slotstore_write_throughput(benchmark):
    """The store 3V runs on: MVStore with the three-slot rule."""
    assert benchmark(hammer_store, lambda: MVStore(three_slots=True)) == 20_000


def test_counter_increment_throughput(benchmark):
    assert benchmark(hammer_counters) == 20_000


def test_end_to_end_simulation_throughput(benchmark):
    result = benchmark.pedantic(small_experiment, rounds=3, iterations=1)
    assert result.history.count("update") > 150
