"""Content-addressed result cache for experiment summaries.

Every finished :class:`~repro.exp.summary.ExperimentSummary` is stored as
one small JSON file under ``.repro-cache/``, keyed by::

    sha256(spec.digest() + ":" + code_fingerprint())

The code fingerprint hashes every ``*.py`` file in the installed
``repro`` package, so any source change — an optimization, a protocol
fix, a new field — invalidates the whole cache automatically.  Because
simulations are deterministic functions of their spec, a hit is exact:
repeated sweeps and CI re-runs cost a file read instead of a simulation.

The cache is an optimization, never a correctness dependency: corrupt or
stale entries are treated as misses, and the directory can be deleted at
any time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import typing

from repro.exp.spec import ExperimentSpec
from repro.exp.summary import ExperimentSummary

#: Default cache directory (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Default maximum number of cached entries before eviction.
DEFAULT_CAP = 4096

_CACHE_SCHEMA = 1

_fingerprint: typing.Optional[str] = None


def code_fingerprint() -> str:
    """Hex sha256 over the source of the installed ``repro`` package.

    Computed once per process; the file walk is sorted so the fingerprint
    is stable across platforms and filesystems.
    """
    global _fingerprint
    if _fingerprint is None:
        import repro

        package_root = pathlib.Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _fingerprint = digest.hexdigest()
    return _fingerprint


@dataclasses.dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0


class ResultCache:
    """Filesystem-backed map from :class:`ExperimentSpec` to summary."""

    def __init__(self, root: typing.Union[str, pathlib.Path] = DEFAULT_CACHE_DIR,
                 cap: int = DEFAULT_CAP):
        self.root = pathlib.Path(root)
        self.cap = cap
        self.stats = CacheStats()

    def key(self, spec: ExperimentSpec) -> str:
        material = f"{spec.digest()}:{code_fingerprint()}"
        return hashlib.sha256(material.encode()).hexdigest()

    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key[:40]}.json"

    def get(self, spec: ExperimentSpec) -> typing.Optional[ExperimentSummary]:
        """The cached summary for ``spec``, or ``None`` on a miss."""
        path = self._path(self.key(spec))
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError):
            self.stats.misses += 1
            return None
        if document.get("schema") != _CACHE_SCHEMA:
            self.stats.misses += 1
            return None
        try:
            summary = ExperimentSummary.from_dict(document["summary"])
        except (KeyError, TypeError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return summary

    def put(self, spec: ExperimentSpec, summary: ExperimentSummary) -> None:
        """Store one summary; evicts oldest entries past the cap."""
        self.root.mkdir(parents=True, exist_ok=True)
        document = {
            "schema": _CACHE_SCHEMA,
            "spec_digest": spec.digest(),
            "fingerprint": code_fingerprint(),
            "spec": dataclasses.asdict(spec),
            "summary": summary.to_dict(),
        }
        path = self._path(self.key(spec))
        # Write-then-rename so a crashed run never leaves a torn entry.
        temp = path.with_suffix(f".tmp{os.getpid()}")
        temp.write_text(json.dumps(document, sort_keys=True) + "\n")
        temp.replace(path)
        self.stats.stores += 1
        self._evict()

    def _evict(self) -> None:
        entries = list(self.root.glob("*.json"))
        excess = len(entries) - self.cap
        if excess <= 0:
            return
        entries.sort(key=lambda p: p.stat().st_mtime)
        for stale in entries[:excess]:
            try:
                stale.unlink()
                self.stats.evictions += 1
            except OSError:
                pass

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
