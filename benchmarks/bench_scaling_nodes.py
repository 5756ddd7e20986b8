"""Node-count scaling benchmark — the cluster axis of the tracked baseline.

Sweeps an *advancement-dominated* 3V workload over cluster sizes (nodes ∈
{4, 8, 16, 32, 64}; the smoke subset stops at 16) with delivery batching
off and on, through the cached experiment fleet.  The cell is deliberately
pure control-plane — zero user transactions, constant latency, a fast
advancement period and poll interval — so what is measured is exactly the
machinery this axis exercises: counter-read waves, quiescence checks, and
the advancement broadcasts whose reply waves delivery batching coalesces.

Two kinds of output:

* ``metrics`` — this suite's own table, fed to no file: wall-clock rates
  and batched-vs-unbatched speedups at the 16-node (and, full mode,
  64-node) cells.  The events/sec rate uses the
  *unbatched* event count as the numerator for both variants: a batched
  run performs the same simulated work with fewer scheduled events, so
  its own event count would understate it.  "Canonical events per second"
  is the honest same-work-per-wall-second comparison.
* ``determinism`` — per-cell event/message/advancement counts, which must
  be bit-stable across hosts and worker counts like every other digest;
  ``tools/golden.py`` gates them in ``GOLDEN.json``.

The batched and unbatched variants of each cell must also agree exactly
on everything except the scheduled-event trace (messages, advancement
runs, polls, transaction counts); this differential is asserted on every
run, so the gate doubles as an equivalence check for delivery batching.

Run directly for the scaling table::

    PYTHONPATH=src python benchmarks/bench_scaling_nodes.py [--smoke]
"""

from __future__ import annotations

import pathlib
import typing

from repro.exp import ExperimentSpec, Fleet, ResultCache
from repro.exp.summary import ExperimentSummary, run_spec

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Cluster sizes per mode.  Smoke stays small enough for the tier-1 budget.
NODE_COUNTS: typing.Dict[str, typing.Tuple[int, ...]] = {
    "full": (4, 8, 16, 32, 64),
    "smoke": (4, 8, 16),
}

#: Simulated seconds of advancement traffic per mode.
DURATIONS = {"full": 600.0, "smoke": 120.0}

#: Node counts whose cells are reported as metrics (when present in the
#: mode's sweep).
METRIC_NODES = (16, 64)


def scaling_spec(nodes: int, batch: int, mode: str = "full"
                 ) -> ExperimentSpec:
    """The advancement-storm cell: all control plane, no user traffic."""
    return ExperimentSpec(
        "3v", nodes=nodes, duration=DURATIONS[mode],
        update_rate=0.0, inquiry_rate=0.0, audit_rate=0.0,
        entities=4, span=2, seed=13,
        advancement_period=0.2, poll_interval=0.05,
        detail=False, batch_delivery=batch, latency_jitter=0.0,
    )


def _check_equivalent(nodes: int, plain: ExperimentSummary,
                      batched: ExperimentSummary) -> None:
    """Batching may only change the scheduled-event trace."""
    for field in ("submitted", "txn_count", "messages_total",
                  "messages_control", "advancement_runs",
                  "advancement_counter_polls"):
        have = getattr(batched, field)
        want = getattr(plain, field)
        if have != want:
            raise AssertionError(
                f"batched delivery changed {field} at {nodes} nodes: "
                f"{want} -> {have}"
            )
    if plain.delivery_batches or plain.batched_messages:
        raise AssertionError(
            f"unbatched run recorded batch stats at {nodes} nodes"
        )
    if batched.batched_messages == 0:
        raise AssertionError(
            f"batched run coalesced nothing at {nodes} nodes "
            "(constant-latency reply waves should share ticks)"
        )


def _timed(spec: ExperimentSpec, repeat: int) -> ExperimentSummary:
    """Best-of-``repeat`` wall clock (summary of the fastest run).

    Timing runs in-process and never through the result cache: a cached
    summary carries the wall clock of whenever it was recorded, which is
    exactly what a fresh measurement must not reuse.
    """
    best: typing.Optional[ExperimentSummary] = None
    for _ in range(repeat):
        summary = run_spec(spec)
        if best is None or summary.wall_seconds < best.wall_seconds:
            best = summary
    return best


def run_scaling(mode: str = "full", jobs: int = 1, repeat: int = 3
                ) -> typing.Dict[str, typing.Any]:
    """Run the sweep; returns ``{"metrics", "determinism", "rows"}``.

    The determinism/equivalence sweep goes through the cached fleet (it
    depends only on simulation behaviour, so cache hits are sound and
    make re-runs cheap); the wall-clock cells are then re-measured fresh,
    best-of-``repeat``, in this process.
    """
    counts = NODE_COUNTS[mode]
    specs = [scaling_spec(nodes, batch, mode)
             for nodes in counts for batch in (0, 1)]
    cache = ResultCache(RESULTS_DIR / ".fleet-cache")
    summaries = Fleet(jobs=jobs, cache=cache).run(specs)
    by_cell = {(spec.nodes, spec.batch_delivery): summary
               for spec, summary in zip(specs, summaries)}

    metrics: typing.Dict[str, float] = {}
    determinism: typing.Dict[str, typing.Any] = {}
    rows = []
    for nodes in counts:
        plain, batched = by_cell[(nodes, 0)], by_cell[(nodes, 1)]
        _check_equivalent(nodes, plain, batched)
        determinism[f"scaling_events_{nodes:02d}"] = plain.sim_events
        determinism[f"scaling_events_batched_{nodes:02d}"] = \
            batched.sim_events
        determinism[f"scaling_messages_{nodes:02d}"] = plain.messages_total
        determinism[f"scaling_advancement_runs_{nodes:02d}"] = \
            plain.advancement_runs

        plain_wall = _timed(scaling_spec(nodes, 0, mode),
                            repeat).wall_seconds
        batched_wall = _timed(scaling_spec(nodes, 1, mode),
                              repeat).wall_seconds
        # Canonical (unbatched) events over each variant's wall: same
        # numerator, so the ratio is a pure wall-clock speedup.
        canonical = plain.sim_events
        rows.append({
            "nodes": nodes,
            "events": canonical,
            "events_batched": batched.sim_events,
            "coalesced": batched.batched_messages,
            "messages": plain.messages_total,
            "events_per_sec": canonical / plain_wall,
            "events_per_sec_batched": canonical / batched_wall,
            "speedup": plain_wall / batched_wall,
        })
        if nodes in METRIC_NODES:
            metrics[f"scaling_advancement_events_per_sec_{nodes}"] = (
                canonical / batched_wall)
            metrics[f"scaling_batch_speedup_{nodes}"] = (
                plain_wall / batched_wall)
    return {"mode": mode, "metrics": metrics, "determinism": determinism,
            "rows": rows}


def render_table(result: typing.Dict[str, typing.Any]) -> str:
    header = (f"{'nodes':>5}  {'events':>8}  {'batched':>8}  "
              f"{'coalesced':>9}  {'ev/s':>10}  {'ev/s batched':>12}  "
              f"{'speedup':>7}")
    lines = [header, "-" * len(header)]
    for row in result["rows"]:
        lines.append(
            f"{row['nodes']:>5}  {row['events']:>8}  "
            f"{row['events_batched']:>8}  {row['coalesced']:>9}  "
            f"{row['events_per_sec']:>10,.0f}  "
            f"{row['events_per_sec_batched']:>12,.0f}  "
            f"{row['speedup']:>6.2f}x"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    import json
    import sys

    chosen = "smoke" if "--smoke" in sys.argv else "full"
    outcome = run_scaling(chosen)
    print(render_table(outcome))
    print(json.dumps({"metrics": outcome["metrics"],
                      "determinism": outcome["determinism"]}, indent=2))
