"""`ExperimentSpec` — the picklable, digestable unit of experiment work.

A spec is a frozen dataclass mirroring the keyword arguments of
:func:`repro.workloads.run_recording_experiment`.  Being frozen and
hashable it can cross a process boundary, key a result cache, and be
compared for equality — three things the CLI's old pattern of mutating a
shared ``argparse.Namespace`` in place could never do.  A spec holds only
values a run can take: construction checks every registered parameter
against its domain (:mod:`repro.parameters`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing

from repro.parameters import PARAMETERS, check_parameters


_SPEC_DIGEST_VERSION = 1

_FLOAT_FIELDS = tuple(p.field for p in PARAMETERS if p.type is float)


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """A complete, immutable description of one simulation run.

    Mirrors :func:`repro.workloads.run_recording_experiment`; two specs
    that compare equal produce bit-identical simulations, and
    :meth:`digest` is a stable content address for caching.
    """

    protocol: str
    nodes: int = 4
    duration: float = 30.0
    update_rate: float = 5.0
    inquiry_rate: float = 3.0
    audit_rate: float = 0.2
    correction_rate: float = 0.0
    entities: int = 50
    span: int = 2
    seed: int = 0
    advancement_period: float = 10.0
    safety_delay: float = 5.0
    poll_interval: float = 0.5
    batch_delivery: int = 0
    latency_jitter: float = 1.0
    stream: int = 0
    zipf: float = 0.0
    with_observations: int = 1
    amount_mode: str = "bitmask"
    abort_fraction: float = 0.0
    detail: bool = True
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    crash_count: int = 0
    fault_seed: int = 0
    partition_count: int = 0
    coordinator_crashes: int = 0
    stall_budget: float = 0.0
    replication_factor: int = 1
    refresh_delay: float = 2.0

    def __post_init__(self):
        check_parameters(vars(self))
        # ``duration=20`` means ``duration=20.0``: hold the float, so the
        # two spellings are one spec with one digest and one cache key.
        for field in _FLOAT_FIELDS:
            value = getattr(self, field)
            if value.__class__ is not float:
                object.__setattr__(self, field, float(value))

    def replace(self, **changes) -> "ExperimentSpec":
        """A copy with some fields changed (specs are immutable)."""
        return dataclasses.replace(self, **changes)

    def run_kwargs(self) -> typing.Dict[str, typing.Any]:
        """Keyword arguments for ``run_recording_experiment``."""
        kwargs = dataclasses.asdict(self)
        kwargs.pop("protocol")
        return kwargs

    def digest(self) -> str:
        """Stable content hash of the spec (hex sha256).

        Ints and floats hash differently (``json`` renders ``4`` and
        ``4.0`` distinctly): integer parameters stay exact, and a float
        parameter given as an int was made a float at construction.  A
        parameter newer than the digest version is hashed only while it
        can affect the run (:meth:`Parameter.inert`), so older specs and
        their cached fleet results keep their address.
        """
        payload = dataclasses.asdict(self)
        for parameter in PARAMETERS:
            if (parameter.added_in > _SPEC_DIGEST_VERSION
                    and parameter.inert(self)):
                payload.pop(parameter.field)
        payload["_spec_version"] = _SPEC_DIGEST_VERSION
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    @classmethod
    def from_args(cls, args, protocol: typing.Optional[str] = None
                  ) -> "ExperimentSpec":
        """Build a spec from a parsed CLI namespace (never mutates it)."""
        fields = {
            p.field: getattr(args, p.dest) for p in PARAMETERS
            if hasattr(args, p.dest)
        }
        # amount_mode is a string choice (``AMOUNT_MODES``) outside the
        # PARAMETERS registry; only the ``run`` command exposes it.
        if hasattr(args, "amount_mode"):
            fields["amount_mode"] = args.amount_mode
        if protocol is None:
            protocol = args.protocol
        return cls(protocol=protocol, **fields)
