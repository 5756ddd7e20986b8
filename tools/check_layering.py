#!/usr/bin/env python
"""Import-layering lint for the runtime/plugin split.

The layering rests on five structural guarantees, and this script keeps
them true by construction:

1. **The runtime is mechanism, not policy.**  Nothing under
   ``repro/runtime/`` may import a protocol package (``repro.core``,
   ``repro.baselines``), the aggregator (``repro.protocols``), or any
   higher layer (``repro.workloads``, ``repro.exp``, ``repro.analysis``,
   ``repro.cli``).  The registry reaches its bootstrap module by *name*
   (``importlib``) precisely so no static import edge exists.

2. **Plugins are peers.**  Protocol implementations must not import each
   other: ``repro.core`` (3V + NC3V) and each baseline module
   (``nocoord``, ``manual``, ``twopc``) may only depend on the runtime
   and the substrate layers (sim/net/storage/txn/history/errors).
   ``repro.protocols`` is the one module allowed to import every plugin.

3. **Fault injection is substrate.**  ``repro.faults`` may import only
   the substrate it instruments (``repro.net``, ``repro.sim``,
   ``repro.errors``) and itself — never the runtime, a protocol plugin,
   or any higher layer.  The crash/recover surface lives on
   ``repro.runtime.System`` and the chaos harness in ``repro.exp``;
   both import *down* into ``repro.faults``, keeping the injector
   reusable under every protocol.

4. **Transaction history is substrate.**  ``repro.txn`` (specs, the
   recording ``History``/``StreamingHistory``, and their online
   aggregates) may import only ``repro.errors``, ``repro.storage``, and
   itself.  In particular it must never import ``repro.analysis``: the
   streaming history *computes* latency aggregates that the analysis
   layer re-exports, and an upward edge would make that a cycle.

5. **Placement is substrate.**  ``repro.placement`` (replica maps, the
   missed-op ledger, the refresh protocol) may import only
   ``repro.errors``, ``repro.sim``, ``repro.storage``, ``repro.net``,
   and itself — never the runtime, a protocol plugin, or any higher
   layer.  The runtime calls *down* into placement through duck-typed
   hooks (``should_skip_write`` receives plain ``(key, operation)``
   pairs, not ``WriteOp`` objects), so replication stays reusable under
   every protocol and the unreplicated path never loads it at all.

The check is AST-based (``import x`` / ``from x import y``, including
relative imports), so string mentions in docstrings or comments are
ignored.  Exit status 0 = clean, 1 = violations (listed one per line).
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import typing

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")

#: Peer plugin groups: a module in one group must not import from another.
PLUGIN_GROUPS = {
    "core": ("repro.core",),
    "nocoord": ("repro.baselines.nocoord",),
    "manual": ("repro.baselines.manual",),
    "twopc": ("repro.baselines.twopc",),
}

#: The only ``repro.*`` prefixes ``repro.faults`` may import.
FAULTS_ALLOWED = (
    "repro.faults",
    "repro.net",
    "repro.sim",
    "repro.errors",
)

#: The only ``repro.*`` prefixes ``repro.txn`` may import.
TXN_ALLOWED = (
    "repro.txn",
    "repro.errors",
    "repro.storage",
)

#: The only ``repro.*`` prefixes ``repro.placement`` may import.
PLACEMENT_ALLOWED = (
    "repro.placement",
    "repro.errors",
    "repro.sim",
    "repro.storage",
    "repro.net",
)

#: Layers the runtime package must never import.
ABOVE_RUNTIME = (
    "repro.core",
    "repro.baselines",
    "repro.protocols",
    "repro.workloads",
    "repro.exp",
    "repro.analysis",
    "repro.cli",
)


def module_name(path: str, src_root: str) -> str:
    """``src/repro/runtime/node.py`` -> ``repro.runtime.node``."""
    relative = os.path.relpath(path, src_root)
    parts = relative.split(os.sep)
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join(parts)


def imported_modules(
    path: str, src_root: str
) -> typing.List[typing.Tuple[int, str]]:
    """Every absolute module name imported by ``path`` (with line numbers)."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    current = module_name(path, src_root)
    package = current if path.endswith("__init__.py") else current.rsplit(".", 1)[0]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # resolve "from . import x" relative imports
                base = package.split(".")
                base = base[: len(base) - (node.level - 1)]
                prefix = ".".join(base)
                target = f"{prefix}.{node.module}" if node.module else prefix
            else:
                target = node.module or ""
            found.append((node.lineno, target))
    return found


def hits(imported: str, prefixes: typing.Sequence[str]) -> bool:
    return any(
        imported == prefix or imported.startswith(prefix + ".")
        for prefix in prefixes
    )


def in_group(module: str) -> typing.Optional[str]:
    for group, prefixes in PLUGIN_GROUPS.items():
        if hits(module, prefixes):
            return group
    return None


def check(src_root: str) -> typing.List[str]:
    violations = []
    for directory, _, filenames in sorted(os.walk(os.path.join(src_root, "repro"))):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            module = module_name(path, src_root)
            display = os.path.relpath(path, REPO_ROOT)
            group = in_group(module)
            for lineno, imported in imported_modules(path, src_root):
                if hits(module, ("repro.runtime",)) and hits(imported, ABOVE_RUNTIME):
                    violations.append(
                        f"{display}:{lineno}: runtime imports higher layer "
                        f"{imported!r} (mechanism must not know policy)"
                    )
                if (hits(module, ("repro.faults",))
                        and hits(imported, ("repro",))
                        and not hits(imported, FAULTS_ALLOWED)):
                    violations.append(
                        f"{display}:{lineno}: repro.faults imports "
                        f"{imported!r} (the injector may only depend on "
                        f"net/sim/errors, never a protocol or the runtime)"
                    )
                if (hits(module, ("repro.txn",))
                        and hits(imported, ("repro",))
                        and not hits(imported, TXN_ALLOWED)):
                    violations.append(
                        f"{display}:{lineno}: repro.txn imports "
                        f"{imported!r} (history is substrate: it may only "
                        f"depend on errors/storage, never the analysis "
                        f"layer that re-exports its aggregates)"
                    )
                if (hits(module, ("repro.placement",))
                        and hits(imported, ("repro",))
                        and not hits(imported, PLACEMENT_ALLOWED)):
                    violations.append(
                        f"{display}:{lineno}: repro.placement imports "
                        f"{imported!r} (placement is substrate: it may "
                        f"only depend on errors/sim/storage/net, never "
                        f"the runtime or a protocol plugin)"
                    )
                if group is None or module == "repro.protocols":
                    continue
                other = in_group(imported)
                if other is not None and other != group:
                    violations.append(
                        f"{display}:{lineno}: plugin group {group!r} imports "
                        f"peer group {other!r} via {imported!r} (plugins must "
                        f"only meet through repro.runtime)"
                    )
    return violations


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", default=SRC_ROOT,
        help="source root containing the repro package (default: src/)",
    )
    args = parser.parse_args(argv)
    violations = check(args.src)
    for violation in violations:
        print(violation)
    if violations:
        print(f"layering check FAILED: {len(violations)} violation(s)")
        return 1
    print("layering check OK: runtime imports no plugin; plugins import no peer")
    return 0


if __name__ == "__main__":
    sys.exit(main())
