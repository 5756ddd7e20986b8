"""Hot-path benchmark suite — the tracked performance baseline.

Not a paper artefact: this suite measures the *substrate* — the simulation
kernel, the 3V data-path storage structures, and the end-to-end simulated
protocol — so performance regressions show up as numbers, not as mysteriously
slow experiment runs.  ``tools/bench.py`` drives it and maintains the
committed trajectory file ``BENCH_hotpath.json`` at the repository root;
``docs/PERFORMANCE.md`` documents the schema and workflow.

Workloads (full-mode parameters; ``smoke`` shrinks them to fit the tier-1
test budget):

* ``kernel_callback`` — 200k chained callbacks, 75% zero-delay (the FIFO
  fast path), 25% timer-driven (the heap path).
* ``kernel_process`` — 50k items through a producer/consumer pair of
  generator processes over a :class:`~repro.sim.resources.Store`.
* ``e2e_3v`` — the full 3V protocol: 8 nodes, 120 simulated seconds of the
  recording workload, seed 13.  Also the determinism canary: its event and
  transaction counts and analysis digest must be bit-for-bit stable.
* ``advancement`` — e2e run dominated by version-advancement waves
  (period 2.0, poll 0.25): measures the two-wave quiescence machinery.
* ``counter`` / ``mvstore`` / ``quiescent`` — microbenchmarks of the three
  3V data-path structures.  ``quiescent_checks_per_sec`` measures the
  aggregate-total path the two-wave detector actually polls (one scalar
  per node per wave); ``quiescent_scan_checks_per_sec`` keeps the full
  O(nodes²) differential-oracle scan on the books.
* The node-count scaling sweep (``bench_scaling_nodes``) and the
  transaction-volume sweep (``bench_volume``) ride along: their
  ``scaling_*`` / ``volume_*`` metrics and per-cell determinism counts
  merge into this suite's output so ``tools/bench.py --check`` gates
  them — including the streaming-mode memory-flatness ratio and the
  streaming-vs-materialized equivalence assert.
* ``*_vs_reference`` — the same kernel workloads on
  :class:`~repro.sim.reference.ReferenceSimulator` (the seed pure-heap
  scheduler), giving a live optimized-vs-seed kernel speedup.

Every metric is a rate (higher is better).  Run directly for a quick look::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--smoke]
"""

from __future__ import annotations

import time
import typing

from repro.analysis.metrics import latency_summary, throughput
from repro.sim import ReferenceSimulator, Simulator
from repro.sim.resources import Store
from repro.storage.counters import CounterTable, aggregate_quiescent, quiescent
from repro.storage.mvstore import MVStore
from repro.workloads import run_recording_experiment

#: Workload sizing.  ``full`` is the tracked baseline; ``smoke`` must stay
#: inside the tier-1 test budget (a couple of seconds total).
CONFIGS: typing.Dict[str, dict] = {
    "full": {
        "kernel_events": 200_000,
        "process_items": 50_000,
        "counter_incs": 200_000,
        "mvstore_rounds": 100_000,
        "quiescent_checks": 2_000,
        "aggregate_checks": 200_000,
        "quiescent_nodes": 32,
        "e2e": dict(nodes=8, duration=120.0, update_rate=16.0,
                    inquiry_rate=8.0, audit_rate=0.2, entities=200, span=2,
                    seed=13, detail=False),
        "advancement": dict(nodes=8, duration=60.0, update_rate=8.0,
                            inquiry_rate=4.0, audit_rate=0.1, entities=100,
                            span=2, seed=29, detail=False,
                            advancement_period=2.0, poll_interval=0.25),
        "repeat": 3,
    },
    "smoke": {
        "kernel_events": 20_000,
        "process_items": 5_000,
        "counter_incs": 20_000,
        "mvstore_rounds": 10_000,
        "quiescent_checks": 100,
        "aggregate_checks": 10_000,
        "quiescent_nodes": 16,
        "e2e": dict(nodes=4, duration=20.0, update_rate=8.0,
                    inquiry_rate=4.0, audit_rate=0.2, entities=60, span=2,
                    seed=13, detail=False),
        "advancement": dict(nodes=4, duration=15.0, update_rate=4.0,
                            inquiry_rate=2.0, audit_rate=0.1, entities=40,
                            span=2, seed=29, detail=False,
                            advancement_period=2.0, poll_interval=0.25),
        # best-of-3 even in smoke mode: the storms are milliseconds each,
        # and single-shot timings swing enough to flap the --check gate.
        "repeat": 3,
    },
}


def _best_of(fn: typing.Callable[[], typing.Any], repeat: int
             ) -> typing.Tuple[float, typing.Any]:
    """(best wall-seconds, last result) over ``repeat`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best, result


# ----------------------------------------------------------------------
# Kernel workloads (parameterized by simulator class so the reference
# pure-heap scheduler runs the identical program)
# ----------------------------------------------------------------------

def kernel_callback_storm(n: int, sim_class=Simulator) -> int:
    """Chained callbacks, 3-in-4 zero-delay; returns events scheduled."""
    sim = sim_class()
    state = [0]

    def tick():
        state[0] += 1
        if state[0] < n:
            if state[0] % 4:
                sim.schedule(0.0, tick)
            else:
                sim.schedule(0.001, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return sim.scheduled_count


def kernel_process_storm(n: int, sim_class=Simulator) -> int:
    """Producer/consumer generator processes over a Store."""
    sim = sim_class()
    store = Store(sim)

    def producer():
        for i in range(n):
            store.put(i)
            if i % 4:
                yield sim.timeout(0.0)
            else:
                yield sim.timeout(0.001)

    def consumer():
        while True:
            item = yield store.get()
            if item == n - 1:
                return

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    return sim.scheduled_count


# ----------------------------------------------------------------------
# End-to-end protocol workloads
# ----------------------------------------------------------------------

def run_e2e(config: dict):
    return run_recording_experiment("3v", **config)


def timed_e2e(config: dict) -> dict:
    """Run + self-time the e2e workload; picklable, spawn-safe.

    Timing happens *inside* the worker so the measurement excludes
    process startup; results carry only flat numbers across the process
    boundary.
    """
    t0 = time.perf_counter()
    result = run_e2e(config)
    wall = time.perf_counter() - t0
    return {"wall": wall, "digest": e2e_digest(result)}


def timed_advancement(config: dict) -> dict:
    """Run + self-time the advancement-heavy workload (spawn-safe)."""
    t0 = time.perf_counter()
    result = run_e2e(config)
    wall = time.perf_counter() - t0
    return {
        "wall": wall,
        "events": result.system.sim.scheduled_count,
        "advancement_runs": result.system.coordinator.completed_runs,
        "counter_polls": sum(
            a.counter_polls for a in result.history.advancements
        ),
    }


def e2e_digest(result) -> typing.Dict[str, typing.Any]:
    """Determinism digest of an e2e run — must be bit-for-bit stable for a
    given config across processes, machines, and optimizations."""
    return {
        "events": result.system.sim.scheduled_count,
        "txns": len(result.history.txns),
        "update_throughput": throughput(result.history, result.duration,
                                        kind="update"),
        "update_p95": latency_summary(result.history, kind="update").p95,
    }


# ----------------------------------------------------------------------
# Storage microbenchmarks
# ----------------------------------------------------------------------

def counter_storm(n: int) -> int:
    table = CounterTable("p")
    table.ensure_version(1)
    inc_r, inc_c = table.inc_request, table.inc_completion
    for _ in range(n):
        inc_r(1, "q")
        inc_c(1, "q")
    return table.request_count(1, "q")


def mvstore_storm(n: int) -> int:
    store = MVStore()
    for k in range(100):
        store.load(k, 0)
    for i in range(n):
        k = i % 100
        store.read_max_leq(k, 5)
        store.exists_above(k, 5)
        store.ensure_version(k, 1)
    return n


def quiescent_storm(n: int, nodes: int) -> bool:
    """The O(nodes²) differential-oracle scan (kept for comparison)."""
    ids = [f"n{i:02d}" for i in range(nodes)]
    reqs = {p: {q: 7 for q in ids} for p in ids}
    comps = {q: {p: 7 for p in ids} for q in ids}
    ok = True
    for _ in range(n):
        ok = quiescent(reqs, comps) and ok
    return ok


def aggregate_quiescent_storm(n: int, nodes: int) -> bool:
    """The aggregate-total check the two-wave detector actually runs.

    One scalar per node per wave — the shape ``gather_counters`` returns
    for the ``RT``/``CT`` waves — so each check is two dict-sums instead
    of a nodes² cell scan.
    """
    ids = [f"n{i:02d}" for i in range(nodes)]
    req_totals = {p: 7 * nodes for p in ids}
    comp_totals = {q: 7 * nodes for q in ids}
    ok = True
    for _ in range(n):
        ok = aggregate_quiescent(req_totals, comp_totals) and ok
    return ok


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------

def run_suite(mode: str = "full", jobs: int = 1
              ) -> typing.Dict[str, typing.Any]:
    """Run every workload; returns ``{"metrics": ..., "determinism": ...}``.

    All metrics are rates (per wall-second, higher is better) except the
    ``*_speedup_vs_reference`` ratios (dimensionless, higher is better).

    With ``jobs > 1`` the two independent end-to-end workloads (``e2e_3v``
    and ``advancement``) are collected concurrently in spawned worker
    processes, each self-timed; the kernel and storage microbenchmarks
    always run serially in this process because their best-of-N wall-clock
    timings are only meaningful on an otherwise idle interpreter.  The
    determinism digest is identical either way; rates measured under
    ``jobs > 1`` assume a free core per worker.
    """
    cfg = CONFIGS[mode]
    repeat = cfg["repeat"]
    metrics: typing.Dict[str, float] = {}

    wall, events = _best_of(
        lambda: kernel_callback_storm(cfg["kernel_events"]), repeat)
    metrics["kernel_callback_events_per_sec"] = events / wall
    ref_wall, ref_events = _best_of(
        lambda: kernel_callback_storm(cfg["kernel_events"],
                                      sim_class=ReferenceSimulator), repeat)
    assert events == ref_events, "kernels disagreed on event count"
    metrics["kernel_callback_speedup_vs_reference"] = ref_wall / wall

    wall, events = _best_of(
        lambda: kernel_process_storm(cfg["process_items"]), repeat)
    metrics["kernel_process_events_per_sec"] = events / wall
    ref_wall, ref_events = _best_of(
        lambda: kernel_process_storm(cfg["process_items"],
                                     sim_class=ReferenceSimulator), repeat)
    assert events == ref_events, "kernels disagreed on event count"
    metrics["kernel_process_speedup_vs_reference"] = ref_wall / wall

    if jobs > 1:
        import concurrent.futures
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, 2), mp_context=context
        ) as pool:
            e2e_future = pool.submit(timed_e2e, cfg["e2e"])
            adv_future = pool.submit(timed_advancement, cfg["advancement"])
            e2e = e2e_future.result()
            advancement = adv_future.result()
    else:
        e2e = timed_e2e(cfg["e2e"])
        advancement = timed_advancement(cfg["advancement"])

    digest = e2e["digest"]
    # Gated on transactions, not scheduled callbacks: a runtime that
    # needs fewer callbacks per transaction reads *slower* in events/sec
    # while getting faster (the callback count stays in the digest).
    metrics["e2e_3v_txns_per_sec"] = digest["txns"] / e2e["wall"]

    digest["advancement_runs"] = advancement["advancement_runs"]
    digest["advancement_counter_polls"] = advancement["counter_polls"]
    metrics["advancement_events_per_sec"] = (
        advancement["events"] / advancement["wall"])

    wall, count = _best_of(lambda: counter_storm(cfg["counter_incs"]), repeat)
    assert count == cfg["counter_incs"]
    metrics["counter_incs_per_sec"] = 2 * count / wall

    wall, rounds = _best_of(
        lambda: mvstore_storm(cfg["mvstore_rounds"]), repeat)
    metrics["mvstore_ops_per_sec"] = 3 * rounds / wall

    wall, ok = _best_of(
        lambda: aggregate_quiescent_storm(cfg["aggregate_checks"],
                                          cfg["quiescent_nodes"]), repeat)
    assert ok, "aggregate_quiescent() returned False on balanced totals"
    metrics["quiescent_checks_per_sec"] = cfg["aggregate_checks"] / wall

    wall, ok = _best_of(
        lambda: quiescent_storm(cfg["quiescent_checks"],
                                cfg["quiescent_nodes"]), repeat)
    assert ok, "quiescent() returned False on a balanced counter set"
    metrics["quiescent_scan_checks_per_sec"] = cfg["quiescent_checks"] / wall

    scaling = _sibling_suite("bench_scaling_nodes").run_scaling(mode)
    metrics.update(scaling["metrics"])
    digest.update(scaling["determinism"])

    volume = _sibling_suite("bench_volume").run_volume(mode, jobs=jobs)
    metrics.update(volume["metrics"])
    digest.update(volume["determinism"])

    replication = _sibling_suite("bench_replication").run_replication(mode)
    metrics.update(replication["metrics"])
    digest.update(replication["determinism"])

    return {"mode": mode, "metrics": metrics, "determinism": digest}


def _sibling_suite(name: str):
    """Import a ride-along benchmark module (lazy: only via the suite)."""
    import importlib

    try:
        return importlib.import_module(name)
    except ImportError:
        import pathlib
        import sys

        sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
        return importlib.import_module(name)


def assert_deterministic(mode: str = "smoke") -> typing.Dict[str, typing.Any]:
    """Run the e2e workload twice; raise if the digests differ."""
    cfg = CONFIGS[mode]["e2e"]
    first = e2e_digest(run_e2e(cfg))
    second = e2e_digest(run_e2e(cfg))
    if first != second:
        raise AssertionError(
            f"non-deterministic e2e run: {first} != {second}"
        )
    return first


if __name__ == "__main__":
    import json
    import sys

    chosen = "smoke" if "--smoke" in sys.argv else "full"
    print(json.dumps(run_suite(chosen), indent=2))
