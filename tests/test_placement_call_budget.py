"""The call budget of a replicated write, per record copy.

A recording transaction at replication factor 3 writes every copy of
each of its records: one subtransaction per replica node, each holding
the ops of every record the node has a copy of.  Building it reads the
placement, the record keys and the fan-out groups that the workload laid
out once, when it was built, so it formats no key and walks no ring per
transaction.  A copy on a replica that is down is not dispatched; its
subtransaction is ledgered as one entry that holds its write ops, and
the refresh re-applies those ops once the replica is back.

This test builds a fixed set of such recordings with one replica down,
runs them, brings the replica back and lets the refresh finish, all
under ``cProfile``.  It holds the calls per record copy (the sum of
``Profile.getstats()`` call counts, so no two functions share a row) at
or below what that costs: 34.4 on Python 3.10 and 3.11, 34.1 on 3.12,
which inlines comprehensions.  The workload that walked the ring, grouped
the copies and formatted the keys per transaction, over a ledger that
built one object per skipped op and a refresh that sorted the chain of
each op it applied, paid 44.0.  The budget leaves half a call per record
copy of slack.
"""

from __future__ import annotations

import cProfile

from repro.core import ThreeVSystem
from repro.faults import FaultPlan
from repro.placement import PlacementState
from repro.sim.distributions import RngRegistry
from repro.txn.history import History
from repro.workloads import RecordingConfig
from repro.workloads.recording import RecordingWorkload

NODES = ("a", "b", "c", "d", "e")
DOWN = "c"
RECORDINGS = 300
SPAN = 2
RF = 3
BUDGET = 34.9


def calls_per_record_copy() -> float:
    """Profiled calls per record copy of the fixed recording set."""
    config = RecordingConfig(nodes=NODES, entities=40, span=SPAN,
                             replication_factor=RF)
    placement = PlacementState(refresh_delay=1.0)
    system = ThreeVSystem(NODES, seed=7, faults=FaultPlan(),
                          placement=placement, history=History(events=()))
    workload = RecordingWorkload(config, RngRegistry(11),
                                 track_amounts=False)
    workload.install(system)
    drawn = [workload.draw_recording() for _ in range(RECORDINGS)]
    system.crash(DOWN)
    system.sim.schedule(RECORDINGS * 0.05 + 1.0, system.recover, DOWN)
    profiler = cProfile.Profile()
    profiler.enable()
    for index, draw in enumerate(drawn):
        system.submit_at(index * 0.05, workload.build_recording(index, draw))
    system.run()
    profiler.disable()
    assert system.history.total_txns == RECORDINGS
    counters = system.counters()
    assert counters["writes_skipped"] > 0
    assert counters["refreshes_completed"] == 1
    assert counters["refresh_ops_applied"] == placement.ops_ledgered > 0
    calls = sum(entry.callcount for entry in profiler.getstats())
    return calls / (RECORDINGS * SPAN * RF)


def test_calls_per_record_copy_stay_within_budget():
    per_copy = calls_per_record_copy()
    assert per_copy <= BUDGET, f"{per_copy:.2f} calls per record copy"
