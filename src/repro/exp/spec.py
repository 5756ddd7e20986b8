"""`ExperimentSpec` — the picklable, digestable unit of experiment work.

A spec is a frozen dataclass mirroring the keyword arguments of
:func:`repro.workloads.run_recording_experiment`.  Being frozen and
hashable it can cross a process boundary, key a result cache, and be
compared for equality — three things the CLI's old pattern of mutating a
shared ``argparse.Namespace`` in place could never do.

The module also owns :data:`PARAMETERS`, the single registry of every
sweepable experiment parameter (CLI flag, spec field, exact python type,
default, help text).  ``repro.cli`` builds its argument parsers *and* its
sweep/grid value parsing from this table, so "which parameters exist" is
defined exactly once; integer parameters (``nodes``, ``entities``,
``span``, ``seed``) stay exact ints all the way from the command line to
table output and spec digests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing

from repro.errors import ReproError, SpecError


@dataclasses.dataclass(frozen=True)
class Parameter:
    """One sweepable experiment parameter, shared by all CLI commands."""

    flag: str                 # CLI name, e.g. "update-rate"
    field: str                # ExperimentSpec field name
    type: type                # int or float — values keep this exact type
    default: typing.Any
    help: str
    #: 1 for the parameters spec digest version 1 was defined over, 2 for
    #: those added since.  A parameter newer than ``_SPEC_DIGEST_VERSION``
    #: joins the digest only while it can affect the run (see
    #: :meth:`inert`), so specs written before it existed keep their
    #: content addresses.
    added_in: int = 1
    #: When the parameter cannot affect the run; ``None`` means "while it
    #: is at its default".
    inert_when: typing.Optional[
        typing.Callable[["ExperimentSpec"], bool]] = None

    @property
    def dest(self) -> str:
        """The argparse destination (``--update-rate`` -> ``update_rate``)."""
        return self.flag.replace("-", "_")

    def inert(self, spec: "ExperimentSpec") -> bool:
        """True while the parameter's value in ``spec`` cannot matter."""
        if self.inert_when is not None:
            return self.inert_when(spec)
        return getattr(spec, self.field) == self.default


#: Every parameter an experiment accepts, in CLI display order.  ``sweep``
#: and ``grid`` accept any of these by flag name.
PARAMETERS: typing.Tuple[Parameter, ...] = (
    Parameter("nodes", "nodes", int, 4,
              "number of database nodes (default 4)"),
    Parameter("duration", "duration", float, 30.0,
              "simulated seconds of traffic (default 30)"),
    Parameter("update-rate", "update_rate", float, 5.0,
              "recording transactions per second"),
    Parameter("inquiry-rate", "inquiry_rate", float, 3.0,
              "inquiry transactions per second"),
    Parameter("audit-rate", "audit_rate", float, 0.2,
              "audit transactions per second"),
    Parameter("correction-rate", "correction_rate", float, 0.0,
              "non-commuting corrections per second (NC3V)"),
    Parameter("entities", "entities", int, 50,
              "number of entities (patients/accounts/SKUs)"),
    Parameter("span", "span", int, 2,
              "nodes each entity's records span"),
    Parameter("seed", "seed", int, 0,
              "master random seed"),
    Parameter("period", "advancement_period", float, 10.0,
              "advancement/switch period in simulated seconds"),
    Parameter("safety-delay", "safety_delay", float, 5.0,
              "manual versioning's read-switch delay"),
    Parameter("abort-fraction", "abort_fraction", float, 0.0,
              "fraction of recordings that abort (compensation)"),
    Parameter("poll-interval", "poll_interval", float, 0.5,
              "advancement counter poll interval (3V)"),
    Parameter("batch-delivery", "batch_delivery", int, 0,
              "coalesce same-tick same-destination message deliveries "
              "(0=off, 1=on; changes the scheduled-event trace)"),
    Parameter("latency-jitter", "latency_jitter", float, 1.0,
              "width of the uniform latency window around mean 1.0 "
              "(1.0 = the historic Uniform(0.5, 1.5); 0 = constant)"),
    Parameter("stream", "stream", int, 0,
              "bounded-memory mode: lazy arrivals + streaming history + "
              "rolling audit (0=materialized, 1=streaming)"),
    Parameter("zipf", "zipf", float, 0.0,
              "hot-key skew exponent for entity choice (0 = uniform)"),
    Parameter("observations", "with_observations", int, 1,
              "insert per-node observation log records (0=off, 1=on; "
              "volume runs turn this off to keep storage O(entities))"),
    # Fault-injection axes (repro.faults): all-zero means no fault
    # machinery is attached and the run is bit-identical to the seed path.
    Parameter("drop-rate", "drop_rate", float, 0.0,
              "per-link message drop probability (fault injection)"),
    Parameter("dup-rate", "dup_rate", float, 0.0,
              "per-link message duplication probability (fault injection)"),
    Parameter("crash-count", "crash_count", int, 0,
              "crash/recover cycles per node (fault injection)"),
    Parameter("fault-seed", "fault_seed", int, 0,
              "seed for the fault schedule (independent of the workload)"),
    # The control-plane chaos axes and the replication axes below came
    # after digest version 1: each hashes only while it can affect the run.
    Parameter("partition-count", "partition_count", int, 0,
              "timed network partition/heal cycles (fault injection)",
              added_in=2),
    Parameter("coordinator-crashes", "coordinator_crashes", int, 0,
              "mid-wave advancement-coordinator crash/recover cycles "
              "(coordinator-ful protocols only; ignored by baselines)",
              added_in=2),
    Parameter("stall-budget", "stall_budget", float, 0.0,
              "advancement liveness budget for the stall watchdog "
              "(0 = twice the advancement period)",
              added_in=2),
    # Replication axes (repro.placement): replication-factor 1 means no
    # placement machinery is attached and the run is bit-identical to the
    # single-owner path, so the refresh delay cannot matter either.
    Parameter("replication-factor", "replication_factor", int, 1,
              "replicas per record: read-one / write-all-available "
              "(1 = unreplicated, bit-identical to the historic path)",
              added_in=2),
    Parameter("refresh-delay", "refresh_delay", float, 2.0,
              "delay between a replica's recovery and its refresh "
              "request (it serves no reads until refresh completes)",
              added_in=2,
              inert_when=lambda spec: spec.replication_factor == 1),
)

PARAMETERS_BY_FLAG: typing.Dict[str, Parameter] = {
    p.flag: p for p in PARAMETERS
}


def parse_parameter_value(flag: str, text: str) -> typing.Union[int, float]:
    """Parse one swept value with the parameter's exact type.

    ``nodes 4`` stays ``int(4)`` (never ``4.0``), so digests and table
    cells are exact; a fractional value for an integer parameter is an
    error rather than a silent truncation.
    """
    parameter = PARAMETERS_BY_FLAG.get(flag)
    if parameter is None:
        raise ReproError(
            f"unknown parameter {flag!r}; choose from "
            f"{', '.join(sorted(PARAMETERS_BY_FLAG))}"
        )
    try:
        return parameter.type(text)
    except ValueError:
        raise ReproError(
            f"parameter {flag!r} takes {parameter.type.__name__} values, "
            f"got {text!r}"
        ) from None


_SPEC_DIGEST_VERSION = 1


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
        # NaN passes every range check downstream (``nan < 0`` is false)
        # and an infinite duration or rate never ends, so no registered
        # parameter may hold a non-finite float.
        for parameter in PARAMETERS:
            value = getattr(self, parameter.field)
            if isinstance(value, float) and not math.isfinite(value):
                raise SpecError(
                    f"{parameter.field} (--{parameter.flag}) must be "
                    f"finite, got {value!r}")

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
        ``4.0`` distinctly), which is exactly right: integer parameters
        must stay exact.  A parameter newer than the digest version is
        hashed only while it can affect the run (:meth:`Parameter.inert`),
        so older specs and their cached fleet results keep their address.
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
        # amount_mode is a string choice, not a sweepable numeric
        # parameter, so it lives outside the PARAMETERS registry; only
        # the ``run`` command exposes it.
        if hasattr(args, "amount_mode"):
            fields["amount_mode"] = args.amount_mode
        if protocol is None:
            protocol = args.protocol
        return cls(protocol=protocol, **fields)
