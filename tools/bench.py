#!/usr/bin/env python
"""Run the hot-path digest suite and maintain ``BENCH_hotpath.json``.

The file at the repository root records the determinism digests of the
suite's fixed configs, full-mode and smoke-mode: what a run must
reproduce bit for bit whatever was refactored underneath it.  It carries
no timings — performance claims rest on ``benchmarks/e2e``.  See
``docs/PERFORMANCE.md`` for the file and the workflow.

Usage (from the repository root)::

    python tools/bench.py              # run full suite, print digests
    python tools/bench.py --smoke      # quick run
    python tools/bench.py --update     # rewrite the committed digests
    python tools/bench.py --check      # gate against the committed digests
    python tools/bench.py --check --smoke   # fast gate (CI)
    python tools/bench.py --profile e2e_3v  # cProfile one workload

``--check`` re-runs the suite and fails (exit 1) if any determinism
digest differs from the committed one.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_hotpath.json"

sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_hotpath  # noqa: E402  (needs the path setup above)

SCHEMA_VERSION = 1


def _audit_target(cfg: dict):
    """The post-hoc audit alone: the e2e workload re-run with per-op
    events (bitmask amounts are the runner's default) while the target
    is built, so only ``audit_result`` — grouping, fractured-read check,
    Theorem 4.1 snapshot oracle — lands in the profile."""
    from repro.exp import audit_result

    result = bench_hotpath.run_e2e(dict(cfg["e2e"], detail=True))
    return lambda: audit_result(result, check_snapshots=True)


#: ``--profile`` targets: benchmark name -> zero-arg callable factory.
#: Each runs one suite workload once at the chosen mode's sizing; what a
#: factory does before returning its callable is not profiled.
PROFILE_TARGETS = {
    "audit": _audit_target,
    "kernel_callback": lambda cfg: (
        lambda: bench_hotpath.kernel_callback_storm(cfg["kernel_events"])),
    "kernel_process": lambda cfg: (
        lambda: bench_hotpath.kernel_process_storm(cfg["process_items"])),
    "e2e_3v": lambda cfg: (lambda: bench_hotpath.run_e2e(cfg["e2e"])),
    "advancement": lambda cfg: (
        lambda: bench_hotpath.run_e2e(cfg["advancement"])),
    "counter": lambda cfg: (
        lambda: bench_hotpath.counter_storm(cfg["counter_incs"])),
    "mvstore": lambda cfg: (
        lambda: bench_hotpath.mvstore_storm(cfg["mvstore_rounds"])),
    "quiescent": lambda cfg: (
        lambda: bench_hotpath.quiescent_storm(cfg["quiescent_checks"],
                                              cfg["quiescent_nodes"])),
    "quiescent_aggregate": lambda cfg: (
        lambda: bench_hotpath.aggregate_quiescent_storm(
            cfg["aggregate_checks"], cfg["quiescent_nodes"])),
}


def collector_watch():
    """A ``gc.callbacks`` observer and the table it fills:
    ``{generation: [collections, seconds]}``."""
    import time

    totals = {generation: [0, 0.0] for generation in range(3)}
    started = 0.0

    def watch(phase: str, info: dict) -> None:
        nonlocal started
        if phase == "start":
            started = time.perf_counter()
        else:
            row = totals[info["generation"]]
            row[0] += 1
            row[1] += time.perf_counter() - started

    return totals, watch


def profile_benchmark(name: str, mode: str,
                      out_path: pathlib.Path | None = None) -> None:
    """Run one benchmark under cProfile and print the hot functions.

    Above the table goes one line on the cyclic collector, which cProfile
    cannot see (it charges a collection to whichever function allocated
    last): a run inside ``collector_paused`` reads zero everywhere, a
    ``System`` driven outside it shows what it pays, and a reference
    cycle per transaction shows up as collections that find work.
    """
    import cProfile
    import gc
    import pstats

    target = PROFILE_TARGETS[name](bench_hotpath.CONFIGS[mode])
    collections, watch = collector_watch()
    profiler = cProfile.Profile()
    gc.callbacks.append(watch)
    try:
        profiler.enable()
        target()
        profiler.disable()
    finally:
        gc.callbacks.remove(watch)
    print("collector: " + ", ".join(
        f"gen{generation} {count} collections {seconds:.3f} s"
        for generation, (count, seconds) in collections.items()))
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(30)
    if out_path is not None:
        stats.dump_stats(str(out_path))
        print(f"wrote profile stats to {out_path} "
              f"(load with pstats.Stats or snakeviz)")


def print_report(suite: dict) -> None:
    print(f"hot-path suite ({suite['mode']} mode) determinism digest:")
    for name, value in suite["determinism"].items():
        print(f"  {name} = {value}")


def build_baseline() -> dict:
    """Run full + smoke suites and assemble the committed document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "description": (
            "Tracked hot-path performance baseline; regenerate with "
            "`PYTHONPATH=src python tools/bench.py --update` and gate with "
            "`--check`.  See docs/PERFORMANCE.md."
        ),
        "determinism": bench_hotpath.run_suite("full")["determinism"],
        "smoke_determinism": bench_hotpath.run_suite("smoke")["determinism"],
    }


def check(baseline: dict, fresh: dict, mode: str, out=print) -> bool:
    """Compare a fresh suite run against the committed digests.

    Returns ``True`` when every committed digest of ``mode`` is matched
    exactly.  Like-for-like only: a smoke run is gated against the smoke
    table and a full run against the full table (their sizings differ
    severalfold).  A baseline missing its mode's table fails rather than
    vacuously passing.
    """
    digest_key = "determinism" if mode == "full" else "smoke_determinism"
    if digest_key not in baseline:
        out(f"baseline has no {digest_key} table for mode={mode}; "
            f"run --update first")
        return False
    ok = True
    for name, old in baseline[digest_key].items():
        new = fresh["determinism"].get(name)
        if new != old:
            out(f"DETERMINISM BROKEN  {name}: {old} -> {new}")
            ok = False
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--smoke", action="store_true",
                        help="small workloads (fits the tier-1 test budget)")
    parser.add_argument("--check", action="store_true",
                        help="gate the determinism digests against "
                             "BENCH_hotpath.json")
    parser.add_argument("--update", action="store_true",
                        help="run full+smoke suites and rewrite the digests")
    parser.add_argument("--output", type=pathlib.Path, default=BASELINE_PATH,
                        help="baseline file to write (--update) or read "
                             "(--check)")
    parser.add_argument("--profile", choices=sorted(PROFILE_TARGETS),
                        help="run one benchmark under cProfile and print "
                             "the top functions by cumulative time")
    parser.add_argument("--profile-out", type=pathlib.Path, default=None,
                        help="also dump binary pstats for --profile")
    args = parser.parse_args(argv)
    mode = "smoke" if args.smoke else "full"

    if args.profile:
        profile_benchmark(args.profile, mode, args.profile_out)
        return 0

    if args.update:
        document = build_baseline()
        args.output.write_text(json.dumps(document, indent=2) + "\n")
        print(f"wrote {args.output}")
        print_report({"mode": "full",
                      "determinism": document["determinism"]})
        return 0

    if args.check:
        if not args.output.exists():
            print(f"no baseline at {args.output}; run --update first")
            return 1
        baseline = json.loads(args.output.read_text())
        passed = check(baseline, bench_hotpath.run_suite(mode), mode)
        print("gate:", "PASS" if passed else "FAIL", f"(mode={mode})")
        return 0 if passed else 1

    print_report(bench_hotpath.run_suite(mode))
    return 0


if __name__ == "__main__":
    sys.exit(main())
