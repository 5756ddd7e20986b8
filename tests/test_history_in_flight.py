"""A retiring history keeps its in-flight versions, not a scan for them.

A retiring history keeps, per version, how many transactions that are
not reads are in flight, which is what settles a parked read; a
retaining one retires nothing and scans what it holds.  Hypothesis plays
lifecycle scripts into both retention modes and, after every step, holds
:meth:`History.update_in_flight` to the pass over the records the
auditor used to settle a read with.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.txn.history import History, TxnKind

KINDS = (TxnKind.UPDATE, TxnKind.READ, TxnKind.NONCOMMUTING)

#: ("begin", kind, version) or (action, index into the records begun).
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("begin"), st.sampled_from(KINDS),
                  st.one_of(st.none(), st.integers(0, 3))),
        st.tuples(st.sampled_from(["abort", "compensate", "complete"]),
                  st.integers(0, 15)),
    ),
    max_size=40)


def _update_in_flight(history: History, version: int) -> bool:
    """The scan the auditor settled a parked read with."""
    return any(record.kind != TxnKind.READ and record.version is not None
               and record.version <= version
               for record in history.txns.values())


@settings(max_examples=200, deadline=None)
@given(STEPS, st.booleans())
def test_in_flight_versions_equal_the_scan(steps, retain):
    history = History(events=(), retain=retain)
    names = []
    for step in steps:
        if step[0] == "begin":
            _, kind, version = step
            names.append(f"t{len(names)}")
            history.begin_txn(names[-1], kind, version, 0.0, "n0")
        else:
            action, index = step
            live = [name for name in names if name in history.txns]
            if not live:
                continue
            name = live[index % len(live)]
            if action == "abort":
                history.aborted(name, 1.0)
            elif action == "compensate":
                history.compensated(name)
            elif not retain or history.txns[name].global_complete_time is None:
                history.globally_completed(name, 1.0)
        for version in range(-1, 5):
            assert history.update_in_flight(version) == (
                _update_in_flight(history, version))
