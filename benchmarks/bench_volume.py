"""Transaction-volume benchmark — the bounded-memory streaming axis.

Where ``bench_scaling_nodes`` grows the cluster, this suite grows the
*run*: the same 3V workload at 10x apart transaction volumes (full mode:
100k and 1M transactions on 64 nodes; smoke shrinks both), driven end to
end through streaming mode — lazy arrival generators, a
:class:`~repro.txn.history.StreamingHistory` folding every retired
transaction into online aggregates, and no materialized per-transaction
state anywhere in the stack.

The point of the axis is the *memory* claim: peak heap must be flat in
transaction count.  Three kinds of output, of which only the last feeds
``BENCH_hotpath.json`` (via :func:`bench_hotpath.run_suite`):

* ``volume_memory_flatness`` — peak tracemalloc bytes of the small cell
  over the large one.  Flat memory puts the ratio near 1.0; any O(txns)
  state reappearing anywhere in the stack drags it toward
  ``small/large`` (0.1).  A hard assert caps the large cell at
  ``MEMORY_FLATNESS_LIMIT`` (1.5x) of the small one — the tentpole
  acceptance bar — so a blown ratio fails the suite, and with it
  ``tools/bench.py --check``, outright.
* ``volume_stream_txns_per_sec`` — fresh, untraced wall-clock throughput
  of the small cell (the memory cells run under ``tracemalloc``, which
  roughly doubles wall-clock, so they are never used for rate metrics).
* ``volume_events_*`` / ``volume_txns_*`` — per-cell determinism counts,
  bit-stable like every other digest.

Every run also replays a small *detailed* cell twice — once with
streaming aggregates, once with the same lazy trace materialized — and
asserts the two summaries identical field for field (wall-clock and
memory aside).  That differential is the proof that streaming changes
where numbers are folded, never what they are.

Run directly for the volume table::

    PYTHONPATH=src python benchmarks/bench_volume.py [--smoke]
"""

from __future__ import annotations

import dataclasses
import typing

from repro.exp import ExperimentSpec, audit_result
from repro.exp.summary import ExperimentSummary, run_spec, summarize
from repro.workloads import run_recording_experiment

#: Hard ceiling on peak heap growth across a 10x (full mode) volume jump.
MEMORY_FLATNESS_LIMIT = 1.5

#: Cell sizing per mode.  Arrival rates are identical within a mode, so
#: the small and large cells differ *only* in duration — the cleanest
#: possible apples-to-apples for the memory comparison.  Full mode's
#: rates x durations give ~100k and ~1M submitted transactions.
CONFIGS: typing.Dict[str, dict] = {
    "full": {
        "nodes": 64,
        "rates": dict(update_rate=120.0, inquiry_rate=70.0, audit_rate=10.0),
        "durations": {"small": 500.0, "large": 5000.0},
    },
    "smoke": {
        "nodes": 16,
        "rates": dict(update_rate=60.0, inquiry_rate=35.0, audit_rate=5.0),
        "durations": {"small": 30.0, "large": 120.0},
    },
}


def volume_spec(mode: str, cell: str) -> ExperimentSpec:
    """One streaming volume cell.

    Money amounts (a bitmask would accrete million-bit integers on hot
    keys), no observation records (storage stays O(entities)), no
    latency jitter, delivery batching on, and a slow advancement period:
    the run is dominated by exactly the per-transaction machinery whose
    memory behaviour this axis tracks.  ``zipf=1.1`` skews entity choice
    so hot-key version chains see real pressure.
    """
    cfg = CONFIGS[mode]
    return ExperimentSpec(
        "3v", nodes=cfg["nodes"], duration=cfg["durations"][cell],
        **cfg["rates"], entities=200, span=2, seed=17,
        advancement_period=20.0, poll_interval=1.0,
        detail=False, batch_delivery=1, latency_jitter=0.0,
        stream=1, zipf=1.1, with_observations=0, amount_mode="money",
    )


def differential_spec(mode: str) -> ExperimentSpec:
    """The small *detailed* cell for the streaming-equivalence check."""
    return ExperimentSpec(
        "3v", nodes=8, duration=20.0 if mode == "full" else 10.0,
        update_rate=10.0, inquiry_rate=6.0, audit_rate=0.5,
        correction_rate=0.3, entities=40, span=2, seed=11,
        detail=True, stream=1, zipf=0.8, abort_fraction=0.1,
    )


def check_streaming_equivalence(mode: str) -> ExperimentSummary:
    """Assert streaming aggregates == materializing the same lazy trace.

    Runs the differential cell twice — identically except that the
    second run records into a materialized ``History`` and summarizes it
    post hoc — and requires the two summaries bit-identical on every
    field except the machine-dependent ones.
    """
    spec = differential_spec(mode)
    kwargs = spec.run_kwargs()
    streamed = run_recording_experiment(spec.protocol, **kwargs)
    materialized = run_recording_experiment(
        spec.protocol, **kwargs, stream_aggregates=False)
    summary_s = summarize(spec, streamed,
                          audit_result(streamed, check_snapshots=True))
    summary_m = summarize(spec, materialized,
                          audit_result(materialized, check_snapshots=True))
    for field in dataclasses.fields(ExperimentSummary):
        if field.name in ("wall_seconds", "peak_tracemalloc_bytes"):
            continue
        have = getattr(summary_s, field.name)
        want = getattr(summary_m, field.name)
        if have != want:
            raise AssertionError(
                f"streaming diverged from materialized on {field.name}: "
                f"{have!r} != {want!r}"
            )
    return summary_s


def run_volume(mode: str = "full", jobs: int = 1
               ) -> typing.Dict[str, typing.Any]:
    """Run the axis; returns ``{"metrics", "determinism", "rows"}``.

    The two memory cells always run fresh (a cached peak would be the
    peak of whenever it was recorded); with ``jobs > 1`` they run
    concurrently in spawned workers, each tracing its own interpreter.
    """
    specs = {cell: volume_spec(mode, cell) for cell in ("small", "large")}

    if jobs > 1:
        import concurrent.futures
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=2, mp_context=context
        ) as pool:
            futures = {cell: pool.submit(run_spec, spec, True)
                       for cell, spec in specs.items()}
            cells = {cell: future.result()
                     for cell, future in futures.items()}
    else:
        cells = {cell: run_spec(spec, measure_memory=True)
                 for cell, spec in specs.items()}

    small, large = cells["small"], cells["large"]
    if large.txn_count <= small.txn_count:
        raise AssertionError(
            f"volume cells are mis-sized: large ran {large.txn_count} "
            f"txns vs small's {small.txn_count}"
        )
    if large.peak_tracemalloc_bytes > (
        MEMORY_FLATNESS_LIMIT * small.peak_tracemalloc_bytes
    ):
        raise AssertionError(
            f"streaming memory is not flat: {large.txn_count} txns peaked "
            f"at {large.peak_tracemalloc_bytes / 1e6:.2f}MB, more than "
            f"{MEMORY_FLATNESS_LIMIT}x the {small.txn_count}-txn cell's "
            f"{small.peak_tracemalloc_bytes / 1e6:.2f}MB"
        )

    # Throughput is measured untraced on the small cell: tracemalloc's
    # overhead would halve the rate and, worse, make it drift with
    # allocation mix rather than simulation speed.
    timed = run_spec(specs["small"])

    metrics = {
        "volume_stream_txns_per_sec": timed.txn_count / timed.wall_seconds,
        "volume_memory_flatness": (
            small.peak_tracemalloc_bytes / large.peak_tracemalloc_bytes),
    }
    determinism: typing.Dict[str, typing.Any] = {}
    rows = []
    for cell, summary in (("small", small), ("large", large)):
        determinism[f"volume_events_{cell}"] = summary.sim_events
        determinism[f"volume_txns_{cell}"] = summary.txn_count
        rows.append({
            "cell": cell,
            "nodes": summary.nodes,
            "txns": summary.txn_count,
            "events": summary.sim_events,
            "peak_mb": summary.peak_tracemalloc_bytes / 1e6,
            "traced_wall": summary.wall_seconds,
        })

    differential = check_streaming_equivalence(mode)
    determinism["volume_differential_txns"] = differential.txn_count

    return {"mode": mode, "metrics": metrics, "determinism": determinism,
            "rows": rows}


def render_table(result: typing.Dict[str, typing.Any]) -> str:
    header = (f"{'cell':>6}  {'nodes':>5}  {'txns':>9}  {'events':>10}  "
              f"{'peak MB':>8}  {'traced s':>8}")
    lines = [header, "-" * len(header)]
    for row in result["rows"]:
        lines.append(
            f"{row['cell']:>6}  {row['nodes']:>5}  {row['txns']:>9,}  "
            f"{row['events']:>10,}  {row['peak_mb']:>8.2f}  "
            f"{row['traced_wall']:>8.1f}"
        )
    flatness = result["metrics"]["volume_memory_flatness"]
    lines.append(f"memory flatness (small/large peak): {flatness:.3f}")
    return "\n".join(lines)


if __name__ == "__main__":
    import json
    import sys

    chosen = "smoke" if "--smoke" in sys.argv else "full"
    outcome = run_volume(chosen)
    print(render_table(outcome))
    print(json.dumps({"metrics": outcome["metrics"],
                      "determinism": outcome["determinism"]}, indent=2))
