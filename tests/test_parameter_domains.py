"""Every registered parameter's domain, checked at each of its edges.

A value just outside an edge is refused as :class:`SpecError` naming the
field and flag, both when an :class:`ExperimentSpec` is built and when
:func:`run_recording_experiment` is called directly, and in the direct
call before any simulator exists.  A value just inside the edge builds a
spec.  The table below is written out by hand, apart from the registry, so
a domain that moves fails here.
"""

import math
import sys

import pytest

from repro.errors import SpecError
from repro.exp import PARAMETERS, ExperimentSpec
from repro.sim import Simulator
from repro.workloads import run_recording_experiment

TINY = math.ulp(0.0)
BIG = sys.float_info.max
FLAGS = {p.field: p.flag for p in PARAMETERS}

#: The spec every edge is taken from; at 3 nodes the replication
#: factor's upper edge is 3.
BASE = dict(nodes=3, duration=5.0)

NON_NEGATIVE = ("update_rate", "inquiry_rate", "audit_rate",
                "correction_rate", "safety_delay", "poll_interval", "zipf",
                "stall_budget")
POSITIVE = ("duration", "advancement_period", "refresh_delay")
UNIT = ("abort_fraction", "drop_rate", "dup_rate", "latency_jitter")
SWITCHES = ("batch_delivery", "stream", "with_observations")
COUNTS = ("seed", "crash_count", "fault_seed", "partition_count",
          "coordinator_crashes")
INTEGERS = SWITCHES + COUNTS + ("nodes", "entities", "span",
                                 "replication_factor")

#: (field, just outside an edge, just inside it).
EDGES = [
    *[(field, -TINY, 0.0) for field in NON_NEGATIVE],
    *[(field, math.inf, BIG) for field in NON_NEGATIVE + POSITIVE],
    *[(field, 0.0, TINY) for field in POSITIVE],
    *[(field, -TINY, 0.0) for field in UNIT],
    ("abort_fraction", math.nextafter(1.0, 2.0), 1.0),
    ("drop_rate", 1.0, math.nextafter(1.0, 0.0)),
    ("dup_rate", 1.0, math.nextafter(1.0, 0.0)),
    ("latency_jitter", math.nextafter(2.0, 3.0), 2.0),
    *[(field, -1, 0) for field in SWITCHES],
    *[(field, 2, 1) for field in SWITCHES],
    *[(field, 0.5, 0) for field in SWITCHES],
    *[(field, -1, 0) for field in COUNTS],
    *[(field, 0.5, 1) for field in COUNTS],
    ("nodes", 0, 1),
    ("nodes", 2.5, 2),
    ("entities", 0, 1),
    ("entities", 1.5, 2),
    ("span", 0, 1),
    ("span", 1.5, 9),  # a span wider than the cluster is clamped to it
    ("replication_factor", 0, 1),
    ("replication_factor", 4, 3),
    ("replication_factor", 2.0, 2),
    # A bool is an int to isinstance, but digests as JSON true/false.
    *[(field, True, 1) for field in INTEGERS],
]


def _refused(field):
    return pytest.raises(
        SpecError, match=rf"^{field} \(--{FLAGS[field]}\) must be ")


@pytest.fixture
def no_simulator(monkeypatch):
    def no_simulation(*_args, **_kwargs):
        raise AssertionError("a simulation started")

    monkeypatch.setattr(Simulator, "__init__", no_simulation)


def test_every_registered_parameter_has_its_edges_here():
    assert {field for field, _, _ in EDGES} == set(FLAGS)


@pytest.mark.parametrize("field, outside, inside", EDGES)
def test_just_outside_is_refused_by_the_spec(field, outside, inside):
    with _refused(field):
        ExperimentSpec("3v", **{**BASE, field: outside})


@pytest.mark.parametrize("field, outside, inside", EDGES)
def test_just_outside_is_refused_by_a_direct_call(field, outside, inside,
                                                  no_simulator):
    with _refused(field):
        run_recording_experiment("3v", **{**BASE, field: outside})


@pytest.mark.parametrize("field, outside, inside", EDGES)
def test_just_inside_builds_a_spec(field, outside, inside):
    spec = ExperimentSpec("3v", **{**BASE, field: inside})
    assert getattr(spec, field) == inside


@pytest.mark.parametrize("changes", [
    {"zipf": float("nan")},
    # Arrives through ``system_kwargs``, for ``build_system``.
    {"poll_interval": -1.0},
])
def test_direct_call_is_refused_before_the_simulator(changes, no_simulator):
    (field,) = changes
    with _refused(field):
        run_recording_experiment("3v", **changes)
