"""One fresh-interpreter repetition of an e2e benchmark workload.

``run.py`` spawns this file once per repetition, one after another::

    python child.py timed   '<spec kwargs as JSON>'
    python child.py counted '<spec kwargs as JSON>'

The child imports the program, builds the spec, runs one warm-up
``run_spec`` of the same spec at ``duration=5.0`` (which pays the lazy
imports of ``faults`` / ``placement`` / ``analysis.rolling``), prints a
``ready`` line, then runs the spec exactly once and prints a ``result``
line.  A *counted* child runs it under ``cProfile`` and adds the exact
call counts and the per-layer ledger.  A *timed* child runs it beside a
:class:`HostProbe`, whose reading lets ``run.py`` convert the host time
it took into seconds at one nominal host speed.

A second repetition inside this process would read 10-30 % slower than
the first (heap state carries over), which is why there is none.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import signal
import sys
import time

#: Every layer the ledger may attribute to.  A layer is the first path
#: component under ``src/repro/``; ``accel`` is ``_accel``, ``root`` is
#: the top-level modules (``cli.py``, ``protocols.py``, ...) and
#: ``other`` is everything outside the package (stdlib, third-party,
#: this harness).  A new package under ``src/repro/`` must be named here
#: (``test_e2e_bench.py`` fails until it is).
LAYERS = (
    "sim", "net", "storage", "placement", "runtime", "core", "baselines",
    "txn", "workloads", "analysis", "faults", "exp", "accel", "root",
    "other",
)


#: The host probe's tick: every PROBE_PERIOD_S of wall time, one loop over
#: a few cache lines (it follows the core's clock and what its sibling
#: thread is doing) and one walk over objects scattered through ~28 MB
#: (it follows the shared cache and memory).  Sized to take about equal
#: time, 7 % of the run together: host time tracks this mix better than
#: either half (README.md, "Host speed").
PROBE_PERIOD_S = 0.005
PROBE_COMPUTE_ITERS = 2300
PROBE_WALK_OBJECTS = 250
PROBE_HEAP_OBJECTS = 150_000
#: What a tick took, on the sandbox this was written on, over the series
#: the probe was sized on; host times are restated as if every tick did.
NOMINAL_TICK_S = 350e-6
#: When the tick takes x times longer, ``run_spec`` takes x ** 0.7 times
#: longer: the slope of log host time on log tick time inside one seed,
#: 0.64-0.73 on each of the four workloads (259 timed children), and
#: among 0, 0.6 ... 1 the exponent that spread ten-seed medians least.
HOST_EXPONENT = 0.7


class HostProbe:
    """Reads the host's speed while the program runs, from a timer signal.

    The sandbox is a few cores of a shared host whose speed drifts by a
    quarter and more for minutes at a time, for this fixed piece of work
    as for the program.  Every tick does that work and notes when it ended
    and what it took; :meth:`reading` sums the ticks of an interval, whose
    length less the ticks is the program's own, and :func:`host_scale`
    gives the factor that restates that at the host speed where a tick
    takes :data:`NOMINAL_TICK_S`.  No thread: python runs the handler on
    the main thread between two bytecodes of the program.
    """

    def __init__(self) -> None:
        self._heap = [(i, [i, i + 1]) for i in range(PROBE_HEAP_OBJECTS)]
        random.Random(3).shuffle(self._heap)
        # Out of the collector's reach, or every full collection of the
        # program would walk the probe's heap (and with it whatever the
        # imports and the warm-up left, the same in every child).
        gc.freeze()
        self._cursor = 0
        self._ends: list = []
        self._costs: list = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, _signum, _frame) -> None:
        started = time.perf_counter()
        total = 0
        slots: dict = {}
        for i in range(PROBE_COMPUTE_ITERS):
            slots[i & 63] = total
            total += i * 3 % 7
        cursor = self._cursor
        for item in self._heap[cursor:cursor + PROBE_WALK_OBJECTS]:
            total += item[1][0]
        self._cursor = (cursor + PROBE_WALK_OBJECTS) % PROBE_HEAP_OBJECTS
        ended = time.perf_counter()
        self._ends.append(ended)
        self._costs.append(ended - started)

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def reading(self, start: float, end: float) -> dict:
        """The ticks that ended between two ``perf_counter`` readings."""
        costs = [cost for at, cost in zip(self._ends, self._costs)
                 if start <= at <= end]
        return {"busy_s": sum(costs), "ticks": len(costs),
                "elapsed_s": end - start}


def host_scale(reading: dict) -> float:
    """Factor from the program's host seconds to nominal seconds.

    ``reading`` is what :meth:`HostProbe.reading` returned for the
    interval; the program's host seconds in it are ``elapsed_s - busy_s``.
    An interval too short to hold a tick is left as measured.
    """
    if not reading["ticks"]:
        return 1.0
    tick_s = reading["busy_s"] / reading["ticks"]
    return (NOMINAL_TICK_S / tick_s) ** HOST_EXPONENT


def layer_of(filename: str, package_dir: str) -> str:
    """The ledger layer owning a source file.

    Raises ``KeyError`` for a package under ``src/repro/`` that
    :data:`LAYERS` does not name, so new code cannot hide in ``other``.
    """
    prefix = package_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return "other"
    head, _, rest = filename[len(prefix):].partition(os.sep)
    if not rest:
        return "root"
    layer = head.lstrip("_")
    if layer not in LAYERS:
        raise KeyError(f"{filename}: package {head!r} has no ledger layer")
    return layer


def ledger(stats: dict, package_dir: str) -> dict:
    """Fold a ``pstats`` table into ``{layer: {"self_s", "calls"}}``.

    A python function's ``tottime`` and call count go to the layer owning
    its file.  A builtin has no file: its time and calls go, edge by edge
    through the callers table, to the layer of each *caller*, so that
    ``builtins`` is not a bucket of its own.
    """
    totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    cache: dict = {}

    def owner(func) -> str:
        filename = func[0]
        if filename not in cache:
            cache[filename] = layer_of(filename, package_dir)
        return cache[filename]

    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        if func[0] != "~":
            bucket = totals[owner(func)]
            bucket["self_s"] += tt
            bucket["calls"] += nc
            continue
        edge_calls = 0
        edge_time = 0.0
        for caller, (_ecc, enc, ett, _ect) in callers.items():
            bucket = totals["other" if caller[0] == "~" else owner(caller)]
            bucket["self_s"] += ett
            bucket["calls"] += enc
            edge_calls += enc
            edge_time += ett
        # Whatever the callers table does not cover (a builtin entered
        # from the profiler's own frame) still has to land somewhere.
        totals["other"]["self_s"] += tt - edge_time
        totals["other"]["calls"] += nc - edge_calls
    return totals


def main(argv) -> int:
    mode, spec_json = argv
    if mode not in ("timed", "counted"):
        raise SystemExit(f"unknown child mode {mode!r}")

    t0 = time.perf_counter()
    import repro
    import repro.exp
    import_s = time.perf_counter() - t0

    spec = repro.exp.ExperimentSpec(**json.loads(spec_json))
    repro.exp.run_spec(spec.replace(duration=5.0))
    print(json.dumps({
        "import_s": import_s,
        "build_mode": repro.build_mode(),
        "backend": repro.accel_backend(),
        "python": sys.version.split()[0],
    }), flush=True)

    result = {}
    if mode == "timed":
        probe = HostProbe()
        probe.start()
        t1 = time.perf_counter()
        summary = repro.exp.run_spec(spec)
        spec_s = time.perf_counter() - t1
        probe.stop()
        result["run_probe"] = probe.reading(t1, t1 + spec_s)
        # run_spec starts its own clock as it is entered, so the ticks of
        # its first wall_seconds are the simulation's, the rest the audit's.
        result["simulate_probe"] = probe.reading(
            t1, t1 + summary.wall_seconds)
    else:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        t1 = time.perf_counter()
        summary = profiler.runcall(repro.exp.run_spec, spec)
        spec_s = time.perf_counter() - t1
        table = pstats.Stats(profiler)
        result["total_calls"] = table.total_calls
        result["layers"] = ledger(
            table.stats, os.path.dirname(os.path.abspath(repro.__file__)))

    result.update(
        spec_s=spec_s,
        # ru_maxrss is KiB on Linux.
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        summary=summary.to_dict(),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
