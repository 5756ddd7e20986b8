"""What `import repro` and a simulation run may load.

The package has no dependencies: a simulation run and the analysis
helpers (`mean_ci`'s t quantile, the conflict-graph oracle) are standard
library.  numpy, scipy and networkx would cost `import repro` most of its
time and resident memory, paid again by every CLI call, test process and
spawned fleet worker, so this file pins that none of them is loaded —
module-set assertions in a fresh interpreter, no wall-clock thresholds.
"""

import os
import subprocess
import sys
import textwrap

import repro

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
HEAVY = ("scipy", "networkx", "numpy")


def run_python(*argv: str, **env: str) -> str:
    """Run ``python *argv`` in a fresh interpreter that sees only ``src/``."""
    result = subprocess.run(
        [sys.executable, *argv], env=dict(os.environ, PYTHONPATH=SRC, **env),
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def run_fresh(script: str, **env: str) -> str:
    return run_python("-c", textwrap.dedent(script), **env)


def test_import_and_simulation_runs_load_no_scientific_stack():
    out = run_fresh(f"""
        import sys
        import repro, repro.exp, repro.cli
        from repro.exp import ExperimentSpec, run_spec
        from repro.runtime.registry import PROTOCOLS

        short = dict(nodes=3, duration=6.0, entities=10, seed=1)
        specs = [ExperimentSpec(protocol, **short)
                 for protocol in PROTOCOLS]
        specs.append(ExperimentSpec(
            "3v", detail=True, drop_rate=0.05, crash_count=1,
            partition_count=1, replication_factor=3, **short))
        specs.append(ExperimentSpec("3v", detail=True, stream=1, **short))
        for spec in specs:
            assert run_spec(spec).txn_count > 0, spec
        loaded = sorted(set({HEAVY!r}) & set(sys.modules))
        print(len(specs), loaded)
    """)
    count, loaded = out.split(maxsplit=1)
    assert int(count) >= 6  # 3v, nc3v, three baselines, chaos, streaming
    assert loaded.strip() == "[]"


def test_no_compiled_kernel_is_loaded_or_selectable():
    """PR 18 deleted the compiled kernel with its loader and switch.  A
    checkout built before it may still hold the once git-ignored
    ``src/repro/_accel/*.so``: nothing imports them, and ``REPRO_ACCEL=1``,
    which used to demand a build, selects nothing."""
    out = run_fresh("""
        import sys
        import repro, repro.cli
        from repro.exp import ExperimentSpec, run_spec

        spec = ExperimentSpec("3v", nodes=3, duration=6.0, entities=10, seed=1)
        assert run_spec(spec).txn_count > 0
        print(sorted(m for m in sys.modules if m.startswith("repro._accel")))
    """, REPRO_ACCEL="1")
    assert out.strip() == "[]"
    out = run_python("-m", "repro", "--version", REPRO_ACCEL="1")
    assert out == f"repro {repro.__version__}\n"


def test_analysis_helpers_need_neither_scipy_nor_networkx():
    """The t quantile and the graph pass are standard library: with both
    packages blocked, ``mean_ci`` and the four graph functions work."""
    out = run_fresh("""
        import os
        import sys
        sys.modules["scipy"] = sys.modules["networkx"] = None
        from repro.analysis import (
            build_serialization_graph, equivalent_serial_order,
            is_conflict_serializable, mean_ci, serialization_cycles)
        from repro.workloads import run_recording_experiment

        ci = mean_ci([1.0, 2.0, 3.0])
        assert ci.mean == 2.0 and round(ci.half_width, 6) == 2.484138
        history = run_recording_experiment(
            "nocoord", nodes=3, duration=20.0, update_rate=6.0,
            inquiry_rate=5.0, audit_rate=0.3, entities=6, span=3,
            seed=14, trace_path=os.devnull).history
        graph = build_serialization_graph(history)
        assert graph and serialization_cycles(history)
        assert not is_conflict_serializable(history)
        history = run_recording_experiment(
            "3v", nodes=3, duration=10.0, entities=6, seed=14,
            trace_path=os.devnull).history
        assert is_conflict_serializable(history)
        assert len(equivalent_serial_order(history)) == len(
            build_serialization_graph(history))
        print("ok")
    """)
    assert out.strip() == "ok"
