#!/usr/bin/env python
"""Dead-definition lint: every ``def`` / ``class`` in ``src/`` has a caller.

A definition in ``src/`` is *dead* when no code in the repository names
it apart from the definition itself, and *test-only* when the only code
naming it lives under ``tests/``.  Either way it is code the program
never runs: a dead one goes, a test-only one moves into ``tests/`` (the
differential oracles and reference implementations live there already).
The few definitions that are reached without being named — public API
kept for library users, hooks the standard library calls — are listed in
:data:`ALLOWED`, each with its reason.

The check is by name and AST-based, so it errs towards "used":

* a reference is any ``Name``, any ``Attribute`` and any string constant
  that is exactly the identifier (``getattr(x, "name")``), anywhere in
  ``src/``, ``tests/``, ``benchmarks/``, ``tools/`` or ``examples/``,
  so an override is reached wherever its base hook is called;
* references inside the definition's own body (recursion) do not count,
  and neither do ``import`` lines or ``__all__`` entries, which only
  re-export a name;
* dunder methods are called by the interpreter and are never flagged.

Exit status 0 = clean, 1 = violations (listed one per line).
"""

from __future__ import annotations

import argparse
import ast
import collections
import os
import sys
import typing

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The trees whose code can reach a definition in ``src/``.
SCANNED = ("src", "tests", "benchmarks", "tools", "examples")

#: Definitions kept although no code in the repository names them (or
#: only tests do), by ``module:qualified.name``, each with its reason.
#: An entry covers everything defined inside it (a class's methods).
ALLOWED: typing.Dict[str, str] = {
    # Public API: exported for library users and documented, with a test.
    "repro.analysis.conflictgraph:serialization_cycles":
        "conflict-graph analysis API (the cycles that refute serializability)",
    "repro.analysis.conflictgraph:equivalent_serial_order":
        "conflict-graph analysis API (a witness serial order)",
    "repro.analysis.rolling:atomic_visibility_violations":
        "analysis API: the fractured reads of a history, as evidence",
    "repro.analysis.tracefile:load_txn_records":
        "reads back what export_history writes (the trace file's reader)",
    "repro.core.invariants:InvariantMonitor":
        "exported invariant checker (README.md); ROADMAP item 5's fuzzer",
    "repro.core.policy:ManualPolicy":
        "advancement trigger (Section 4.3: advance on demand)",
    "repro.core.policy:CountPolicy":
        "advancement trigger (Section 4.3: after N update transactions)",
    "repro.core.policy:DivergencePolicy":
        "advancement trigger (Section 4.3: when versions diverge)",
    "repro.core.policy:TransactionTriggerPolicy":
        "advancement trigger (Section 4.3: after a given transaction)",
    "repro.net.latency:LocalRemoteLatency":
        "exported latency model (LAN/WAN split)",
    "repro.net.latency:SkewedLatency":
        "exported latency model (designated slow links)",
    "repro.net.latency:PartitionedLatency":
        "exported latency model (links stalled for a time window)",
    "repro.runtime.system:System.value_at":
        "inspection API shown in README.md",
    "repro.sim.distributions:Exponential":
        "exported service/arrival distribution",
    "repro.workloads.arrivals:uniform_arrivals":
        "exported arrival schedule beside poisson_arrivals",
    "repro.workloads.hospital:HospitalWorkload":
        "the paper's Figure 1 skin, beside the retail and telecom skins",
    "repro.workloads.hospital:hospital_workload":
        "the paper's Figure 1 skin, beside the retail and telecom skins",
    # The examples drive these skins through the generic draw / build
    # pairs; their domain-named one-spec builders are library API.
    "repro.workloads.retail:RetailWorkload":
        "retail skin's one-spec builders, beside the hospital skin",
    "repro.workloads.telecom:TelecomWorkload":
        "telecom skin's one-spec builders, beside the hospital skin",
    # Read-only inspection of private state: tests read these instead of
    # reaching into the underscored fields behind them.
    "repro.net.network:NetworkStats.sent_by_kind": "inspection API",
    "repro.net.network:NetworkStats.total_latency_by_kind": "inspection API",
    "repro.net.network:Network.pending_unacked": "inspection API",
    "repro.placement.replica_map:ReplicaMap.load_per_node": "inspection API",
    "repro.runtime.system:System.submitted_count": "inspection API",
    "repro.sim.resources:Resource.in_use": "inspection API",
    "repro.sim.resources:Resource.queue_length": "inspection API",
    "repro.sim.resources:Store.drain": "inspection API",
    "repro.storage.counters:CounterTable.completion_count":
        "inspection API (request_count's twin)",
    "repro.storage.locktable:LockTable.holders_of": "inspection API",
    "repro.storage.locktable:LockTable.held_keys": "inspection API",
    "repro.storage.locktable:LockTable.queue_length": "inspection API",
    "repro.storage.mvstore:MVStore.live_version_histogram":
        "inspection API (live versions per key: the paper's bound of three)",
    "repro.txn.history:TxnRecord.global_latency": "inspection API",
    "repro.txn.history:TxnRecord.total_wait": "inspection API",
    # Kernel API and hooks the standard library calls.
    "repro.sim.simulator:Simulator.run_until_triggered":
        "public kernel API (run until an event fires)",
    "repro.workloads.runner:collector_paused._recreate_cm":
        "called by contextlib.ContextDecorator for each decorated call",
    "repro:build_mode":
        "called by benchmarks/e2e/child.py until ROADMAP item 1",
    "repro:accel_backend":
        "called by benchmarks/e2e/child.py until ROADMAP item 1",
}


class Definition(typing.NamedTuple):
    key: str          # "module:Qualified.name"
    name: str
    path: str
    lineno: int
    end_lineno: int


def module_name(path: str, src_root: str) -> str:
    """``src/repro/runtime/node.py`` -> ``repro.runtime.node``."""
    parts = os.path.relpath(path, src_root).split(os.sep)
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join(parts)


def python_files(root: str) -> typing.Iterator[str]:
    for directory, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(directory, filename)


def parse(path: str) -> ast.AST:
    with open(path, "r", encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def definitions(tree: ast.AST, module: str, path: str
                ) -> typing.Iterator[Definition]:
    """Every ``def`` / ``class`` in ``tree``, with its qualified name."""

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualified = prefix + child.name
                yield Definition(f"{module}:{qualified}", child.name, path,
                                 child.lineno, child.end_lineno)
                yield from visit(child, qualified + ".")
            else:
                yield from visit(child, prefix)

    yield from visit(tree, "")


def references(tree: ast.AST) -> typing.Iterator[typing.Tuple[str, int]]:
    """``(name, lineno)`` of every use of a name in ``tree``."""
    exported: typing.Set[int] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported.update(id(n) for n in ast.walk(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.isidentifier() and id(node) not in exported):
            yield node.value, node.lineno


def allowed(key: str) -> bool:
    """Whether ``key`` or a definition enclosing it is allowlisted."""
    while True:
        if key in ALLOWED:
            return True
        if "." not in key.split(":", 1)[1]:
            return False
        key = key.rsplit(".", 1)[0]


def check(root: str) -> typing.List[str]:
    src_root = os.path.join(root, "src")
    defined: typing.List[Definition] = []
    #: name -> [(scanned tree, path, lineno)]
    uses: typing.Dict[str, list] = collections.defaultdict(list)
    for area in SCANNED:
        for path in python_files(os.path.join(root, area)):
            tree = parse(path)
            for name, lineno in references(tree):
                uses[name].append((area, path, lineno))
            if area == "src":
                defined.extend(definitions(
                    tree, module_name(path, src_root), path))

    violations = []
    for definition in defined:
        name = definition.name
        if name.startswith("__") and name.endswith("__"):
            continue
        areas = {
            area for area, path, lineno in uses[name]
            if not (path == definition.path
                    and definition.lineno <= lineno <= definition.end_lineno)
        }
        if areas - {"tests"}:
            continue
        if allowed(definition.key):
            continue
        where = "only from tests/" if areas else "by nothing"
        display = os.path.relpath(definition.path, root)
        violations.append(
            f"{display}:{definition.lineno}: {definition.key} is referenced "
            f"{where} (delete it, move it into tests/, or allowlist it "
            f"with a reason)"
        )
    # An entry outliving its definition is reported, so the allowlist
    # cannot rot (entries for modules outside the scanned tree are not).
    known = {d.key for d in defined}
    modules = {key.split(":", 1)[0] for key in known}
    for key in sorted(set(ALLOWED) - known):
        if key.split(":", 1)[0] in modules:
            violations.append(f"allowlist entry {key!r} names no definition")
    return violations


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=REPO_ROOT,
        help="repository root holding src/, tests/, ... (default: this repo)",
    )
    args = parser.parse_args(argv)
    violations = check(args.root)
    for violation in violations:
        print(violation)
    if violations:
        print(f"unused-definition check FAILED: {len(violations)} "
              f"violation(s)")
        return 1
    print("unused-definition check OK: every src/ definition has a caller")
    return 0


if __name__ == "__main__":
    sys.exit(main())
