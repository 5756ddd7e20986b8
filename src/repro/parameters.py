"""The experiment parameter registry, and the one check of a value.

:data:`PARAMETERS` lists every sweepable experiment parameter: CLI flag,
spec field, exact python type, default, help, digest rules and *domain*.
``repro.cli`` builds its parsers, their help and its sweep/grid values
from it; :class:`repro.exp.ExperimentSpec` and
:func:`repro.workloads.run_recording_experiment` pass every value through
:func:`check_parameters`.  It imports only :mod:`repro.errors`, so every
layer can read it.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.errors import SpecError


@dataclasses.dataclass(frozen=True)
class Interval:
    """Finite numbers from ``low`` to ``high``, each end closed unless
    named open; an infinite ``high`` leaves the top unbounded."""

    low: float
    high: float = math.inf
    low_open: bool = False
    high_open: bool = False

    def admits(self, value, fields) -> bool:
        above = self.low < value if self.low_open else self.low <= value
        below = value < self.high if self.high_open else value <= self.high
        return above and below

    def __str__(self) -> str:
        if self.high == math.inf:
            return f"{'>' if self.low_open else '>='} {self.low:g}"
        return (f"in {'(' if self.low_open else '['}{self.low:g}, "
                f"{self.high:g}{')' if self.high_open else ']'}")


@dataclasses.dataclass(frozen=True)
class Choice:
    """One of a finite set of values (the 0/1 switches)."""

    values: typing.Tuple[int, ...] = (0, 1)

    def admits(self, value, fields) -> bool:
        return value in self.values

    def __str__(self) -> str:
        return " or ".join(map(str, self.values))


@dataclasses.dataclass(frozen=True)
class AtLeast:
    """Integers from ``low`` up, capped by the field ``upper`` names."""

    low: int
    upper: typing.Optional[str] = None

    def admits(self, value, fields) -> bool:
        return self.low <= value and (
            self.upper is None or value <= fields[self.upper])

    def __str__(self) -> str:
        return (f">= {self.low}" if self.upper is None
                else f"in [{self.low}, {self.upper}]")


#: The domains most parameters share.
_POSITIVE = Interval(0.0, low_open=True)
_NON_NEGATIVE = Interval(0.0)
_PROBABILITY = Interval(0.0, 1.0, high_open=True)


@dataclasses.dataclass(frozen=True)
class Parameter:
    """One sweepable experiment parameter, shared by all CLI commands."""

    flag: str                 # CLI name, e.g. "update-rate"
    field: str                # ExperimentSpec field name
    type: type                # int or float — values keep this exact type
    default: typing.Any
    help: str
    domain: typing.Union[Interval, Choice, AtLeast]
    #: 1 for the parameters spec digest version 1 was defined over, 2 for
    #: those added since.  A parameter newer than the spec digest version
    #: joins the digest only while it can affect the run (see
    #: :meth:`inert`), so specs written before it existed keep their
    #: content addresses.
    added_in: int = 1
    #: When the parameter cannot affect the run; ``None`` means "while it
    #: is at its default".
    inert_when: typing.Optional[typing.Callable[[typing.Any], bool]] = None

    @property
    def dest(self) -> str:
        """The argparse destination (``--update-rate`` -> ``update_rate``)."""
        return self.flag.replace("-", "_")

    def inert(self, spec) -> bool:
        """True while the parameter's value in ``spec`` cannot matter."""
        if self.inert_when is not None:
            return self.inert_when(spec)
        return getattr(spec, self.field) == self.default

    def check(self, value, fields: typing.Mapping[str, typing.Any]) -> None:
        """Refuse ``value`` unless it has the parameter's type and lies in
        its domain (``fields`` holds the values a bound may name)."""
        if self.type is int:
            # A bool passes isinstance(int) but digests as JSON true/false,
            # a second spelling of 1/0.
            typed = isinstance(value, int) and type(value) is not bool
            kind = "an integer"
        else:  # NaN passes every bound; an infinite rate never ends
            typed, kind = (isinstance(value, (int, float))
                           and math.isfinite(value)), "a finite number"
        if not typed or not self.domain.admits(value, fields):
            raise SpecError(
                f"{self.field} (--{self.flag}) must be "
                f"{self.domain if typed else kind}, got {value!r}")


#: Every parameter an experiment accepts, in CLI display order.  ``sweep``
#: and ``grid`` accept any of these by flag name.
PARAMETERS: typing.Tuple[Parameter, ...] = (
    Parameter("nodes", "nodes", int, 4,
              "number of database nodes", AtLeast(1)),
    Parameter("duration", "duration", float, 30.0,
              "simulated seconds of traffic", _POSITIVE),
    Parameter("update-rate", "update_rate", float, 5.0,
              "recording transactions per second", _NON_NEGATIVE),
    Parameter("inquiry-rate", "inquiry_rate", float, 3.0,
              "inquiry transactions per second", _NON_NEGATIVE),
    Parameter("audit-rate", "audit_rate", float, 0.2,
              "audit transactions per second", _NON_NEGATIVE),
    Parameter("correction-rate", "correction_rate", float, 0.0,
              "non-commuting corrections per second (NC3V)", _NON_NEGATIVE),
    Parameter("entities", "entities", int, 50,
              "number of entities (patients/accounts/SKUs)", AtLeast(1)),
    Parameter("span", "span", int, 2,
              "nodes each entity's records span", AtLeast(1)),
    Parameter("seed", "seed", int, 0, "master random seed", AtLeast(0)),
    Parameter("period", "advancement_period", float, 10.0,
              "advancement/switch period in simulated seconds", _POSITIVE),
    Parameter("safety-delay", "safety_delay", float, 5.0,
              "manual versioning's read-switch delay", _NON_NEGATIVE),
    Parameter("abort-fraction", "abort_fraction", float, 0.0,
              "fraction of recordings that abort (compensation)",
              Interval(0.0, 1.0)),
    Parameter("poll-interval", "poll_interval", float, 0.5,
              "advancement counter poll interval (3V)", _NON_NEGATIVE),
    Parameter("batch-delivery", "batch_delivery", int, 0,
              "coalesce same-tick same-destination message deliveries "
              "(0=off, 1=on; changes the scheduled-event trace)", Choice()),
    Parameter("latency-jitter", "latency_jitter", float, 1.0,
              "width of the uniform latency window around mean 1.0 "
              "(1.0 = the historic Uniform(0.5, 1.5); 0 = constant)",
              Interval(0.0, 2.0)),
    Parameter("stream", "stream", int, 0,
              "bounded-memory mode: lazy arrivals + streaming history + "
              "rolling audit (0=materialized, 1=streaming)", Choice()),
    Parameter("zipf", "zipf", float, 0.0,
              "hot-key skew exponent for entity choice (0 = uniform)",
              _NON_NEGATIVE),
    Parameter("observations", "with_observations", int, 1,
              "insert per-node observation log records (0=off, 1=on; "
              "volume runs turn this off to keep storage O(entities))",
              Choice()),
    # Fault-injection axes (repro.faults): all-zero means no fault
    # machinery is attached and the run is bit-identical to the seed path.
    Parameter("drop-rate", "drop_rate", float, 0.0,
              "per-link message drop probability (fault injection)",
              _PROBABILITY),
    Parameter("dup-rate", "dup_rate", float, 0.0,
              "per-link message duplication probability (fault injection)",
              _PROBABILITY),
    Parameter("crash-count", "crash_count", int, 0,
              "crash/recover cycles per node (fault injection)", AtLeast(0)),
    Parameter("fault-seed", "fault_seed", int, 0,
              "seed for the fault schedule (independent of the workload)",
              AtLeast(0)),
    # The control-plane chaos axes and the replication axes below came
    # after digest version 1: each hashes only while it can affect the run.
    Parameter("partition-count", "partition_count", int, 0,
              "timed network partition/heal cycles (fault injection)",
              AtLeast(0), added_in=2),
    Parameter("coordinator-crashes", "coordinator_crashes", int, 0,
              "mid-wave advancement-coordinator crash/recover cycles "
              "(coordinator-ful protocols only; ignored by baselines)",
              AtLeast(0), added_in=2),
    Parameter("stall-budget", "stall_budget", float, 0.0,
              "advancement liveness budget for the stall watchdog "
              "(0 = twice the advancement period)",
              _NON_NEGATIVE, added_in=2),
    # Replication axes (repro.placement): replication-factor 1 means no
    # placement machinery is attached and the run is bit-identical to the
    # single-owner path, so the refresh delay cannot matter either.
    Parameter("replication-factor", "replication_factor", int, 1,
              "replicas per record: read-one / write-all-available "
              "(1 = unreplicated, bit-identical to the historic path)",
              AtLeast(1, upper="nodes"), added_in=2),
    Parameter("refresh-delay", "refresh_delay", float, 2.0,
              "delay between a replica's recovery and its refresh "
              "request (it serves no reads until refresh completes)",
              _POSITIVE, added_in=2,
              inert_when=lambda spec: spec.replication_factor == 1),
)

PARAMETERS_BY_FLAG: typing.Dict[str, Parameter] = {
    p.flag: p for p in PARAMETERS
}

#: What a recording's amount may be (``--amount-mode``, ``run`` only): a
#: string choice, so not a sweepable parameter, but checked beside them.
AMOUNT_MODES: typing.Tuple[str, ...] = ("bitmask", "money")


def check_parameters(fields: typing.Mapping[str, typing.Any]) -> None:
    """Refuse, as :class:`SpecError` naming field and flag, the first
    registered parameter in ``fields`` (field -> value) that lies outside
    its domain, then an ``amount_mode`` outside :data:`AMOUNT_MODES`.
    Other keys are ignored."""
    for parameter in PARAMETERS:
        if parameter.field in fields:
            parameter.check(fields[parameter.field], fields)
    mode = fields.get("amount_mode", AMOUNT_MODES[0])
    if mode not in AMOUNT_MODES:
        raise SpecError(f"amount_mode (--amount-mode) must be "
                        f"{' or '.join(AMOUNT_MODES)}, got {mode!r}")


def parse_parameter_value(flag: str, text: str) -> typing.Union[int, float]:
    """Parse one swept value with the parameter's exact type.

    ``nodes 4`` stays ``int(4)`` (never ``4.0``), so digests and table
    cells are exact; a fractional value for an integer parameter is an
    error rather than a silent truncation.
    """
    parameter = PARAMETERS_BY_FLAG.get(flag)
    if parameter is None:
        raise SpecError(f"unknown parameter {flag!r}; choose from "
                        f"{', '.join(sorted(PARAMETERS_BY_FLAG))}")
    try:
        return parameter.type(text)
    except ValueError:
        raise SpecError(
            f"parameter {flag!r} takes {parameter.type.__name__} values, "
            f"got {text!r}") from None
