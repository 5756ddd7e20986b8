"""The import-layering lint is a tier-1 gate: the tree must stay clean,
and the checker itself must actually catch violations (a lint that never
fires is indistinguishable from no lint)."""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(REPO_ROOT, "tools", "check_layering.py")


def run_checker(*argv):
    return subprocess.run(
        [sys.executable, CHECKER, *argv],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )


def seed_tree(root, files):
    for relative, body in files.items():
        path = os.path.join(root, relative)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(body)


def test_repository_layering_is_clean():
    result = run_checker()
    assert result.returncode == 0, result.stdout + result.stderr
    assert "layering check OK" in result.stdout


def test_detects_runtime_importing_a_plugin(tmp_path):
    seed_tree(str(tmp_path), {
        "repro/__init__.py": "",
        "repro/runtime/__init__.py": "from repro.core.node import ThreeVPlugin\n",
        "repro/core/__init__.py": "",
        "repro/core/node.py": "ThreeVPlugin = object\n",
    })
    result = run_checker("--src", str(tmp_path))
    assert result.returncode == 1
    assert "runtime imports higher layer" in result.stdout


def test_detects_plugins_importing_each_other(tmp_path):
    seed_tree(str(tmp_path), {
        "repro/__init__.py": "",
        "repro/baselines/__init__.py": "",
        "repro/baselines/nocoord.py": "import repro.baselines.twopc\n",
        "repro/baselines/twopc.py": "",
    })
    result = run_checker("--src", str(tmp_path))
    assert result.returncode == 1
    assert "imports peer group" in result.stdout


def test_relative_imports_are_resolved(tmp_path):
    # "from ..core import node" inside a baseline is still a peer import
    # even though no absolute module name appears in the source.
    seed_tree(str(tmp_path), {
        "repro/__init__.py": "",
        "repro/core/__init__.py": "",
        "repro/core/node.py": "",
        "repro/baselines/__init__.py": "",
        "repro/baselines/manual.py": "from ..core import node\n",
    })
    result = run_checker("--src", str(tmp_path))
    assert result.returncode == 1
    assert "imports peer group" in result.stdout


def test_detects_faults_importing_the_runtime(tmp_path):
    seed_tree(str(tmp_path), {
        "repro/__init__.py": "",
        "repro/faults/__init__.py": "from repro.runtime.system import System\n",
        "repro/runtime/__init__.py": "",
        "repro/runtime/system.py": "System = object\n",
    })
    result = run_checker("--src", str(tmp_path))
    assert result.returncode == 1
    assert "repro.faults imports" in result.stdout


def test_detects_txn_importing_analysis(tmp_path):
    # The streaming history computes aggregates the analysis layer
    # re-exports; an upward edge from txn would close that into a cycle.
    seed_tree(str(tmp_path), {
        "repro/__init__.py": "",
        "repro/txn/__init__.py": "",
        "repro/txn/history.py": (
            "from repro.analysis.metrics import latency_summary\n"
        ),
        "repro/analysis/__init__.py": "",
        "repro/analysis/metrics.py": "latency_summary = object\n",
    })
    result = run_checker("--src", str(tmp_path))
    assert result.returncode == 1
    assert "repro.txn imports" in result.stdout


def test_txn_may_import_errors_and_storage(tmp_path):
    seed_tree(str(tmp_path), {
        "repro/__init__.py": "",
        "repro/txn/__init__.py": "",
        "repro/txn/spec.py": (
            "from repro.errors import ReproError\n"
            "from repro.storage import mvstore\n"
        ),
        "repro/errors.py": "ReproError = Exception\n",
        "repro/storage/__init__.py": "",
        "repro/storage/mvstore.py": "",
    })
    result = run_checker("--src", str(tmp_path))
    assert result.returncode == 0, result.stdout + result.stderr


def test_faults_may_import_sim_and_errors_only(tmp_path):
    # Fault plans are data; the network reads them, so the plans never
    # import the network.
    seed_tree(str(tmp_path), {
        "repro/__init__.py": "",
        "repro/faults/__init__.py": (
            "from repro.sim import simulator\nfrom repro.errors import E\n"
        ),
        "repro/errors.py": "E = Exception\n",
        "repro/sim/__init__.py": "",
        "repro/sim/simulator.py": "",
    })
    result = run_checker("--src", str(tmp_path))
    assert result.returncode == 0, result.stdout + result.stderr
    seed_tree(str(tmp_path), {
        "repro/faults/plan.py": "from repro.net import network\n",
        "repro/net/__init__.py": "",
        "repro/net/network.py": "",
    })
    result = run_checker("--src", str(tmp_path))
    assert result.returncode == 1
    assert "repro.faults imports 'repro.net" in result.stdout


def test_detects_placement_importing_runtime(tmp_path):
    # Placement is substrate: the runtime calls down into it through
    # duck-typed hooks, never the other way around.
    seed_tree(str(tmp_path), {
        "repro/__init__.py": "",
        "repro/placement/__init__.py": (
            "from repro.runtime.system import System\n"
        ),
        "repro/runtime/__init__.py": "",
        "repro/runtime/system.py": "System = object\n",
    })
    result = run_checker("--src", str(tmp_path))
    assert result.returncode == 1
    assert "repro.placement imports" in result.stdout


def test_detects_placement_importing_txn(tmp_path):
    # should_skip_write receives plain (key, operation) pairs precisely
    # so placement never needs WriteOp; an import of repro.txn means the
    # duck-typing contract broke.
    seed_tree(str(tmp_path), {
        "repro/__init__.py": "",
        "repro/placement/__init__.py": "",
        "repro/placement/state.py": "from repro.txn.spec import WriteOp\n",
        "repro/txn/__init__.py": "",
        "repro/txn/spec.py": "WriteOp = object\n",
    })
    result = run_checker("--src", str(tmp_path))
    assert result.returncode == 1
    assert "repro.placement imports" in result.stdout


def test_placement_may_import_storage_and_net(tmp_path):
    seed_tree(str(tmp_path), {
        "repro/__init__.py": "",
        "repro/placement/__init__.py": (
            "from repro.errors import SimulationError\n"
            "from repro.net import message\n"
            "from repro.storage import mvstore\n"
            "from repro.sim import simulator\n"
        ),
        "repro/errors.py": "SimulationError = Exception\n",
        "repro/net/__init__.py": "",
        "repro/net/message.py": "",
        "repro/storage/__init__.py": "",
        "repro/storage/mvstore.py": "",
        "repro/sim/__init__.py": "",
        "repro/sim/simulator.py": "",
    })
    result = run_checker("--src", str(tmp_path))
    assert result.returncode == 0, result.stdout + result.stderr


def test_runtime_names_and_aggregator_are_allowed(tmp_path):
    seed_tree(str(tmp_path), {
        "repro/__init__.py": "",
        "repro/protocols.py": (
            "import repro.core.node\nimport repro.baselines.twopc\n"
        ),
        "repro/runtime/__init__.py": "",
        "repro/runtime/node.py": "",
        "repro/core/__init__.py": "",
        "repro/core/node.py": "from repro.runtime.node import ProtocolNode\n",
        "repro/baselines/__init__.py": "",
        "repro/baselines/twopc.py": "from repro.runtime import node\n",
    })
    result = run_checker("--src", str(tmp_path))
    assert result.returncode == 0, result.stdout + result.stderr


def _generator_functions(root):
    """``(path, line, name)`` of every function under ``root`` whose own
    body yields (nested functions are checked on their own)."""
    import ast

    found = []
    for directory, _dirs, files in os.walk(root):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for function in ast.walk(tree):
                if not isinstance(function, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)):
                    continue
                pending = list(function.body)
                while pending:
                    node = pending.pop()
                    if isinstance(node, (ast.Yield, ast.YieldFrom)):
                        found.append((os.path.relpath(path, REPO_ROOT),
                                      function.lineno, function.name))
                        break
                    if not isinstance(node, (ast.FunctionDef,
                                             ast.AsyncFunctionDef,
                                             ast.Lambda, ast.ClassDef)):
                        pending.extend(ast.iter_child_nodes(node))
    return found


def test_the_protocol_layers_run_no_generators():
    """The node runtime, the protocols and the control plane are
    callbacks and state machines: a generator function under these
    packages would need a process kernel to drive it."""
    generators = []
    for package in ("core", "runtime", "baselines"):
        generators += _generator_functions(
            os.path.join(REPO_ROOT, "src", "repro", package))
    assert generators == []


def test_only_the_history_builds_operation_events():
    """A run's history builds the read and write events it declared:
    an executor calls ``history.read`` / ``history.wrote`` and never
    constructs a ``ReadEvent`` or ``WriteEvent`` itself."""
    import ast

    src = os.path.join(REPO_ROOT, "src", "repro")
    owner = os.path.join(src, "txn", "history.py")
    found = []
    for directory, _dirs, files in os.walk(src):
        for filename in sorted(files):
            path = os.path.join(directory, filename)
            if not filename.endswith(".py") or path == owner:
                continue
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id",
                               getattr(node.func, "attr", None))
                if name in ("ReadEvent", "WriteEvent"):
                    found.append((os.path.relpath(path, REPO_ROOT),
                                  node.lineno, name))
    assert found == []
