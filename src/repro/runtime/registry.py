"""`PROTOCOLS` — the single registry of runnable protocol systems.

Protocol modules register themselves at import time (see
``repro/protocols.py``, the aggregator that imports them all); everything
that needs "the list of protocols" — the CLI's ``--protocol`` choices,
``repro.workloads.build_system``, ``repro.exp`` spec validation, the
uniform cross-protocol tests — derives from this registry instead of
maintaining its own tuple.

The registry bootstraps lazily: the first lookup imports the aggregator
module by *name*, so this module never imports a plugin package directly
(the layering lint in ``tools/check_layering.py`` checks exactly that).
Display order is fixed by each entry's ``order`` key, independent of
import order, so CLI help and iteration stay stable however the packages
happen to be loaded.
"""

from __future__ import annotations

import dataclasses
import importlib
import typing

from repro.errors import ReproError


@dataclasses.dataclass(frozen=True)
class ProtocolEntry:
    """One runnable protocol."""

    name: str
    #: ``builder(node_ids, *, seed, latency, node_config,
    #: advancement_period, safety_delay, poll_interval,
    #: allow_noncommuting, faults=None, batch_delivery=False,
    #: history=None, placement=None) -> System``
    builder: typing.Callable
    description: str
    #: Display/iteration rank (import order must not matter).
    order: int
    #: The protocol guarantees snapshot-consistent reads, so the CLI
    #: treats a failed serializability audit as an error, not a finding.
    strict_audit: bool = False
    #: Crash-target id of the protocol's advancement coordinator, when it
    #: has one (``None`` for coordinator-free baselines).  The chaos
    #: harness uses this to aim coordinator crash events.
    coordinator: typing.Optional[str] = None
    #: Whether the protocol detects in-flight work before retiring a
    #: version.  ``False`` marks the paper's manual-versioning failure
    #: mode as *expected*: a straggler delayed past the fixed safety
    #: delay (e.g. by a partition) loses its latest-version update, so
    #: the chaos harness reports — but does not fail on — store
    #: disagreement under partition plans.
    detects_termination: bool = True


class ProtocolRegistry:
    """Mapping-like registry of :class:`ProtocolEntry`, lazily bootstrapped."""

    def __init__(self, bootstrap_module: typing.Optional[str] = None):
        self._entries: typing.Dict[str, ProtocolEntry] = {}
        self._bootstrap_module = bootstrap_module
        self._loaded = bootstrap_module is None

    def register(self, name: str, builder: typing.Callable, *,
                 description: str = "", order: int,
                 strict_audit: bool = False,
                 coordinator: typing.Optional[str] = None,
                 detects_termination: bool = True) -> ProtocolEntry:
        """Add a protocol (idempotent for identical re-registration)."""
        entry = ProtocolEntry(
            name=name, builder=builder, description=description,
            order=order, strict_audit=strict_audit, coordinator=coordinator,
            detects_termination=detects_termination,
        )
        existing = self._entries.get(name)
        if existing is not None and existing != entry:
            raise ReproError(f"protocol {name!r} registered twice")
        self._entries[name] = entry
        return entry

    def _load(self) -> None:
        if not self._loaded:
            # Mark first: the aggregator import re-enters via register().
            self._loaded = True
            importlib.import_module(self._bootstrap_module)

    # ------------------------------------------------------------------
    # Mapping surface
    # ------------------------------------------------------------------

    def names(self) -> typing.Tuple[str, ...]:
        self._load()
        return tuple(sorted(self._entries, key=lambda n: self._entries[n].order))

    def __iter__(self):
        return iter(self.names())

    def __len__(self) -> int:
        self._load()
        return len(self._entries)

    def __contains__(self, name) -> bool:
        self._load()
        return name in self._entries

    def __getitem__(self, name: str) -> ProtocolEntry:
        self._load()
        try:
            return self._entries[name]
        except KeyError:
            raise ReproError(
                f"unknown protocol {name!r}; pick from {self.names()}"
            ) from None

    def get(self, name: str,
            default: typing.Optional[ProtocolEntry] = None
            ) -> typing.Optional[ProtocolEntry]:
        self._load()
        return self._entries.get(name, default)

    def strict(self) -> typing.Tuple[str, ...]:
        """Names of protocols whose audits must come back clean."""
        return tuple(n for n in self.names() if self._entries[n].strict_audit)

    def build(self, name: str, node_ids, **options):
        """Instantiate protocol ``name``'s system behind the uniform
        builder signature."""
        return self[name].builder(node_ids, **options)

    def __repr__(self) -> str:
        loaded = sorted(self._entries, key=lambda n: self._entries[n].order)
        return f"ProtocolRegistry({', '.join(loaded) or '<unloaded>'})"


#: The process-wide registry; bootstrapped from ``repro.protocols``.
PROTOCOLS = ProtocolRegistry(bootstrap_module="repro.protocols")
