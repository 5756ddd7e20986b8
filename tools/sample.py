#!/usr/bin/env python
"""Sample where an *untraced* ``benchmarks/e2e`` workload spends CPU time.

A ``SIGPROF`` timer interrupts the run every millisecond of CPU time (the
kernel rounds that to 4 ms on this sandbox) and the handler notes which
Python function was executing.  Unlike ``cProfile`` it adds no per-call
cost and allocates nothing in the program's frames, so call-heavy code is
not inflated against straight-line code; docs/PERFORMANCE.md ("Reading
cProfile on this codebase") says what it can and cannot see.  Use it to
find rows, then measure with ``benchmarks/e2e``.

Usage (from the repository root)::

    python tools/sample.py stream_64n                # self rows
    python tools/sample.py stream_64n --inclusive    # rows with callees
    python tools/sample.py record_8n --seeds 4,5,6

Self rows charge each sample to the function that was running.
``--inclusive`` walks the stack and charges every function on it, once
per sample however often it recurs, so a row reads "share of the run
spent in this function or anything it called".
"""

from __future__ import annotations

import argparse
import collections
import pathlib
import signal
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "e2e"))

import repro.exp  # noqa: E402  (needs the path setup above)
import run as e2e  # noqa: E402  (benchmarks/e2e/run.py)

INTERVAL_S = 0.001


def _label(code) -> tuple:
    return code.co_filename.split("/repro/")[-1], code.co_qualname


def sample(specs, inclusive: bool):
    """Run ``specs`` under the timer; ``(samples taken, samples per
    (file, function))``."""
    hits: collections.Counter = collections.Counter()
    taken = 0

    def tick(_signum, frame):
        nonlocal taken
        taken += 1
        codes = {frame.f_code}
        while inclusive and frame.f_back is not None:
            frame = frame.f_back
            codes.add(frame.f_code)
        for code in codes:
            hits[_label(code)] += 1

    previous = signal.signal(signal.SIGPROF, tick)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        for spec in specs:
            repro.exp.run_spec(spec)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, previous)
    return taken, hits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(e2e.WORKLOAD_SPECS))
    parser.add_argument("--seeds", default="1,2,3",
                        help="comma-separated seed offsets, one run each")
    parser.add_argument("--inclusive", action="store_true",
                        help="charge a sample to every function on the stack")
    parser.add_argument("--smoke", action="store_true",
                        help="durations divided as run.py --smoke does")
    parser.add_argument("--rows", type=int, default=12)
    args = parser.parse_args(argv)

    specs = [
        repro.exp.ExperimentSpec(
            **e2e.resolved_spec(args.workload, int(seed), args.smoke))
        for seed in args.seeds.split(",")
    ]
    # Warm-up, as child.py does: pays the lazy imports outside the timer.
    repro.exp.run_spec(specs[0].replace(duration=5.0))
    taken, hits = sample(specs, args.inclusive)
    print(f"{args.workload}: {taken} samples"
          f"{' (inclusive)' if args.inclusive else ''}")
    for (where, name), n in hits.most_common(args.rows):
        print(f"{100 * n / taken:5.1f} %  {where}:{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
