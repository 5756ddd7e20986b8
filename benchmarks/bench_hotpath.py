"""Hot-path suite — the determinism digests and the ``--profile`` targets.

Not a paper artefact and not a source of timings: performance
claims rest on ``benchmarks/e2e`` (``BENCHMARK.json``).  What this suite
keeps is what made refactors safe — for fixed configs, the discrete
outcome of a run (scheduled callbacks, transactions, messages,
advancement runs, analysis floats) must be bit-for-bit stable across
processes, machines and optimizations.  ``tools/bench.py`` drives it and
maintains the committed digests in ``BENCH_hotpath.json`` at the
repository root; ``docs/PERFORMANCE.md`` documents the file and workflow.

Workloads (full-mode parameters; ``smoke`` shrinks them to fit the tier-1
test budget):

* ``e2e_3v`` — the full 3V protocol: 8 nodes, 120 simulated seconds of the
  recording workload, seed 13.  The determinism canary: its event and
  transaction counts and analysis digest.
* ``advancement`` — e2e run dominated by version-advancement waves
  (period 2.0, poll 0.25): advancement runs and counter polls.
* The node-count scaling sweep (``bench_scaling_nodes``), the
  transaction-volume sweep (``bench_volume``) and the replication sweep
  (``bench_replication``) ride along: their per-cell determinism counts
  merge into this suite's digest, and each asserts its own equivalence
  on every run (batched vs unbatched delivery, streamed vs materialized
  history, the memory-flatness bar, rf=1 vs unreplicated), so
  ``tools/bench.py --check`` gates those too.
* ``kernel_callback`` / ``kernel_process`` / ``counter`` / ``mvstore`` /
  ``quiescent`` — storms over the simulation kernel and the three 3V
  data-path structures.  They feed no file; ``tools/bench.py --profile``
  runs one under cProfile.

Run directly for a quick look::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--smoke]
"""

from __future__ import annotations

import typing

from repro.analysis.metrics import latency_summary, throughput
from repro.sim import Simulator
from repro.sim.resources import Store
from repro.storage.counters import CounterTable, aggregate_quiescent, quiescent
from repro.storage.mvstore import MVStore
from repro.workloads import run_recording_experiment

#: Workload sizing.  ``full`` is the tracked baseline; ``smoke`` must stay
#: inside the tier-1 test budget.
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
    },
}


# ----------------------------------------------------------------------
# Kernel storms
# ----------------------------------------------------------------------

def kernel_callback_storm(n: int) -> int:
    """Chained callbacks, 3-in-4 zero-delay; returns events scheduled."""
    sim = Simulator()
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


def kernel_process_storm(n: int) -> int:
    """Producer/consumer generator processes over a Store."""
    sim = Simulator()
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

def run_suite(mode: str = "full") -> typing.Dict[str, typing.Any]:
    """Run every digest workload; returns ``{"mode", "determinism"}``."""
    cfg = CONFIGS[mode]
    digest = e2e_digest(run_e2e(cfg["e2e"]))

    advancement = run_e2e(cfg["advancement"])
    digest["advancement_runs"] = advancement.system.coordinator.completed_runs
    digest["advancement_counter_polls"] = sum(
        a.counter_polls for a in advancement.history.advancements)

    # repeat=1: the sweep's best-of-N timing feeds its own table, not this.
    scaling = _sibling_suite("bench_scaling_nodes").run_scaling(
        mode, repeat=1)
    digest.update(scaling["determinism"])
    volume = _sibling_suite("bench_volume").run_volume(mode)
    digest.update(volume["determinism"])
    replication = _sibling_suite("bench_replication").run_replication(mode)
    digest.update(replication["determinism"])

    return {"mode": mode, "determinism": digest}


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
