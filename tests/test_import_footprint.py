"""What `import repro` and a simulation run may load.

scipy and networkx serve six analysis helpers (a t quantile, a t-test,
four graph calls) that no simulation run reaches.  Loaded eagerly they
are most of `import repro`'s time and resident memory, paid again by
every CLI call, test process and spawned fleet worker — so they are
imported inside the functions that use them, and this file pins that:
module-set assertions in a fresh interpreter, no wall-clock thresholds.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import repro.analysis
from repro.errors import ReproError
from repro.txn.history import History

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


def test_analysis_helpers_load_them_on_demand():
    pytest.importorskip("scipy")
    pytest.importorskip("networkx")
    out = run_fresh("""
        import sys
        from repro.analysis import is_conflict_serializable, mean_ci
        from repro.txn.history import History

        before = {"scipy", "networkx"} & set(sys.modules)
        ci = mean_ci([1.0, 2.0, 3.0])
        assert ci.mean == 2.0 and ci.low < 2.0 < ci.high
        assert is_conflict_serializable(History())
        after = {"scipy", "networkx"} & set(sys.modules)
        print(sorted(before), sorted(after))
    """)
    assert out.strip() == "[] ['networkx', 'scipy']"


@pytest.mark.parametrize("module, helper, args", [
    ("scipy", "mean_ci", ([1.0, 2.0, 3.0],)),
    ("networkx", "build_serialization_graph", (History(),)),
    ("networkx", "equivalent_serial_order", (History(),)),
    ("networkx", "serialization_cycles", (History(),)),
    ("networkx", "is_conflict_serializable", (History(),)),
])
def test_missing_extra_fails_loudly(monkeypatch, module, helper, args):
    """Without the `analysis` extra the helpers raise a ReproError that
    names it, rather than a bare ModuleNotFoundError from deep inside."""
    # A None entry makes `import <module>` raise ImportError.
    monkeypatch.setitem(sys.modules, module, None)
    with pytest.raises(ReproError, match=r"repro\[analysis\]"):
        getattr(repro.analysis, helper)(*args)
