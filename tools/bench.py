#!/usr/bin/env python
"""Run the hot-path benchmark suite and maintain ``BENCH_hotpath.json``.

The trajectory file at the repository root records the tracked performance
baseline (full-mode and smoke-mode metrics, the determinism digests, and the
frozen seed-kernel numbers for the speedup claim).  See
``docs/PERFORMANCE.md`` for the schema and workflow.

Usage (from the repository root)::

    PYTHONPATH=src python tools/bench.py              # run full suite, print
    PYTHONPATH=src python tools/bench.py --smoke      # quick run (~2 s)
    PYTHONPATH=src python tools/bench.py --update     # rewrite the baseline
    PYTHONPATH=src python tools/bench.py --check      # regression gate
    PYTHONPATH=src python tools/bench.py --check --smoke   # fast gate

``--check`` re-runs the suite and fails (exit 1) if any metric regressed by
more than ``--tolerance`` (default 25%) against the committed baseline, or
if a determinism digest changed at all.  Metrics only *improving* never
fail the gate; run ``--update`` to ratchet the baseline forward.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_hotpath.json"

sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_accel  # noqa: E402  (needs the path setup above)
import bench_hotpath  # noqa: E402

SCHEMA_VERSION = 1


def current_build() -> dict:
    """The kernel build this process runs: ``{"mode": ..., "backend": ...}``.

    ``mode`` is what the loader actually selected ("pure"/"accel"); the
    backend is reported only when the mode is accel, so a built-but-
    disabled checkout (``REPRO_ACCEL=0``) still counts as pure.
    """
    import repro

    mode = repro.build_mode()
    backend = repro.accel_backend() if mode == "accel" else None
    return {"mode": mode, "backend": backend}

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


def _fmt(value: float) -> str:
    if value >= 1000:
        return f"{value:,.0f}"
    return f"{value:.3f}"


def print_report(suite: dict) -> None:
    print(f"hot-path benchmark suite ({suite['mode']} mode)")
    width = max(len(name) for name in suite["metrics"])
    for name, value in suite["metrics"].items():
        print(f"  {name:<{width}}  {_fmt(value)}")
    print("  determinism digest:")
    for name, value in suite["determinism"].items():
        print(f"    {name} = {value}")


def build_baseline() -> dict:
    """Run full + smoke suites and assemble the trajectory document."""
    full = bench_hotpath.run_suite("full")
    smoke = bench_hotpath.run_suite("smoke")
    document = {
        "schema_version": SCHEMA_VERSION,
        "description": (
            "Tracked hot-path performance baseline; regenerate with "
            "`PYTHONPATH=src python tools/bench.py --update` and gate with "
            "`--check`.  See docs/PERFORMANCE.md."
        ),
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
            # The kernel build the pure metric tables were measured under.
            # --check refuses to compare metrics across differing builds.
            "build_mode": current_build()["mode"],
            "build_backend": current_build()["backend"],
        },
        "metrics": full["metrics"],
        "determinism": full["determinism"],
        "smoke_metrics": smoke["metrics"],
        "smoke_determinism": smoke["determinism"],
    }
    accel = bench_accel.run_accel_suite("full")
    if accel is not None:
        # Side-by-side pure-vs-compiled cells: measured in one process
        # from explicit class handles, so they are build-mode independent
        # and live in their own section (absent on pure-only checkouts).
        document["accel"] = accel
    previous = load_baseline()
    if previous is not None and "seed_baseline" in previous:
        document["seed_baseline"] = previous["seed_baseline"]
        seed = previous["seed_baseline"]["metrics"]
        document["speedup_vs_seed"] = {
            name: full["metrics"][name] / seed[name]
            for name in seed
            if name in full["metrics"] and seed[name] > 0
        }
    return document


def load_baseline() -> dict | None:
    if not BASELINE_PATH.exists():
        return None
    return json.loads(BASELINE_PATH.read_text())


def check(baseline: dict, fresh: dict, mode: str, tolerance: float,
          out=print, digest_only: bool = False) -> bool:
    """Compare a fresh suite run against the committed baseline.

    Returns ``True`` when the gate passes.  Rates may not drop more than
    ``tolerance`` (fractional); determinism digests must match exactly.

    Metric comparison is refused (gate fails with an explanation) when
    the baseline was measured under a different kernel build than this
    process runs: comparing pure wall-clock against compiled wall-clock
    reports multi-x "slowdowns" that are build artifacts, not
    regressions.  ``digest_only=True`` skips the metric tables entirely
    and gates just the determinism digests — which must be bit-identical
    across builds, so that comparison is always legal.
    """
    metrics_key = "metrics" if mode == "full" else "smoke_metrics"
    digest_key = "determinism" if mode == "full" else "smoke_determinism"
    if not digest_only:
        baseline_build = baseline.get("host", {}).get("build_mode", "pure")
        fresh_build = fresh.get("build", current_build())["mode"]
        if baseline_build != fresh_build:
            out(f"REFUSED: baseline metrics were measured under the "
                f"'{baseline_build}' kernel build but this run uses "
                f"'{fresh_build}' — wall-clock rates are not comparable "
                f"across builds.")
            out("Use --digest-only to gate the (build-independent) "
                "determinism digests, or re-baseline with --update under "
                "the matching build.")
            return False
    # Like-for-like only: a smoke run is gated exclusively against the
    # smoke tables and a full run against the full tables (their sizings
    # differ severalfold, so cross-comparison is meaningless).  A baseline
    # missing its mode's tables fails rather than vacuously passing.
    missing = [key for key in (metrics_key, digest_key)
               if key not in baseline]
    if digest_only:
        missing = [key for key in (digest_key,) if key not in baseline]
    if missing:
        out(f"baseline has no {'/'.join(missing)} table(s) for "
            f"mode={mode}; run --update first")
        return False
    ok = True
    if not digest_only:
        committed = baseline[metrics_key]
        for name, old in committed.items():
            new = fresh["metrics"].get(name)
            if new is None:
                out(f"MISSING  {name}: present in baseline, absent in "
                    f"fresh run")
                ok = False
                continue
            ratio = new / old if old > 0 else float("inf")
            verdict = "ok"
            if ratio < 1.0 - tolerance:
                verdict = "REGRESSED"
                ok = False
            out(f"{verdict:>9}  {name}: {_fmt(old)} -> {_fmt(new)} "
                f"({ratio:.2f}x)")
        if mode == "full":
            # The accel section is measured at full sizing only.
            ok = _check_accel(baseline, fresh, tolerance, out) and ok
    committed_digest = baseline[digest_key]
    fresh_digest = fresh["determinism"]
    for name, old in committed_digest.items():
        new = fresh_digest.get(name)
        if new != old:
            out(f"DETERMINISM BROKEN  {name}: {old} -> {new}")
            ok = False
    return ok


def _check_accel(baseline: dict, fresh: dict, tolerance: float,
                 out=print) -> bool:
    """Gate the side-by-side ``accel_*`` cells when both sides have them.

    The accel section is measured from explicit class handles, so it is
    comparable regardless of the ambient build mode — but only within one
    backend, and only when a compiled build exists on the checking host.
    A fresh run without a compiled build skips the section with a note
    (pure checkouts must still pass the gate).
    """
    committed = baseline.get("accel")
    if committed is None:
        return True
    measured = fresh.get("accel")
    if measured is None:
        out("note: baseline has accel cells but no compiled build is "
            "present here — accel section skipped")
        return True
    if measured.get("backend") != committed.get("backend"):
        out(f"note: accel backend changed "
            f"({committed.get('backend')} -> {measured.get('backend')}) — "
            f"accel cells not comparable, section skipped "
            f"(re-baseline with --update)")
        return True
    ok = True
    for name, old in committed["metrics"].items():
        new = measured["metrics"].get(name)
        if new is None:
            out(f"MISSING  {name}: present in baseline, absent in fresh run")
            ok = False
            continue
        ratio = new / old if old > 0 else float("inf")
        verdict = "ok"
        if ratio < 1.0 - tolerance:
            verdict = "REGRESSED"
            ok = False
        out(f"{verdict:>9}  {name}: {_fmt(old)} -> {_fmt(new)} "
            f"({ratio:.2f}x)")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--smoke", action="store_true",
                        help="small workloads (fits the tier-1 test budget)")
    parser.add_argument("--check", action="store_true",
                        help="regression-gate against BENCH_hotpath.json")
    parser.add_argument("--update", action="store_true",
                        help="run full+smoke suites and rewrite the baseline")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional slowdown for --check "
                             "(default 0.25)")
    parser.add_argument("--digest-only", action="store_true",
                        help="with --check: gate only the determinism "
                             "digests (legal across kernel builds; metric "
                             "tables are skipped)")
    parser.add_argument("--output", type=pathlib.Path, default=BASELINE_PATH,
                        help="baseline file to write (--update) or read "
                             "(--check)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="collect the independent e2e/advancement "
                             "benchmarks in parallel worker processes "
                             "(timed kernels always stay serial; use "
                             "--jobs 1 for tracked measurements)")
    parser.add_argument("--profile", choices=sorted(PROFILE_TARGETS),
                        help="run one benchmark under cProfile and print "
                             "the top functions by cumulative time")
    parser.add_argument("--profile-out", type=pathlib.Path, default=None,
                        help="also dump binary pstats for --profile")
    args = parser.parse_args(argv)

    if args.profile:
        profile_benchmark(args.profile, "smoke" if args.smoke else "full",
                          args.profile_out)
        return 0

    if args.update:
        document = build_baseline()
        args.output.write_text(json.dumps(document, indent=2) + "\n")
        print(f"wrote {args.output}")
        print_report({"mode": "full", "metrics": document["metrics"],
                      "determinism": document["determinism"]})
        return 0

    mode = "smoke" if args.smoke else "full"

    def collect() -> dict:
        suite = bench_hotpath.run_suite(mode, jobs=args.jobs)
        suite["build"] = current_build()
        if mode == "full" and not args.digest_only:
            accel = bench_accel.run_accel_suite("full")
            if accel is not None:
                suite["accel"] = accel
        return suite

    if args.check:
        baseline_path = args.output
        if not baseline_path.exists():
            print(f"no baseline at {baseline_path}; run --update first")
            return 1
        baseline = json.loads(baseline_path.read_text())
        if not args.digest_only:
            # Refuse cross-build comparison before burning a suite run.
            probe = {"build": current_build(), "metrics": {},
                     "determinism": {}}
            baseline_build = baseline.get("host", {}).get("build_mode",
                                                          "pure")
            if baseline_build != probe["build"]["mode"]:
                check(baseline, probe, mode, args.tolerance,
                      digest_only=False)
                print(f"gate: FAIL (mode={mode}, cross-build refusal)")
                return 1
        suite = collect()
        passed = check(baseline, suite, mode, args.tolerance,
                       digest_only=args.digest_only)
        if not passed:
            # One retry before failing: a single wall-clock measurement on a
            # shared/virtualized host can dip well past tolerance from CPU
            # steal alone.  A real regression fails both runs; determinism
            # breaks fail both runs by construction.
            print("gate: retrying once (first run exceeded tolerance) ...")
            suite = collect()
            passed = check(baseline, suite, mode, args.tolerance,
                           digest_only=args.digest_only)
        print("gate:", "PASS" if passed else "FAIL",
              f"(mode={mode}, tolerance={args.tolerance:.0%}"
              f"{', digest-only' if args.digest_only else ''})")
        return 0 if passed else 1

    print_report(collect())
    return 0


if __name__ == "__main__":
    sys.exit(main())
