"""The node runtime's per-subtransaction call budget.

A plain 3V subtransaction (Theorem 4.2: purely local) runs one short call
chain: the submission or the child's delivery, ``_arrive``, the
executor's ``acquire``, ``service_time``, one ``schedule``, ``_finish``
with ``execute_ops`` and one store ``write`` per write op (Section 4.1
step 4: check/create, then update; the chain is indexed, with no
``dict.get``) and the increment's ``apply`` (which tests the state's
exact class, with no ``isinstance``), ``release``, the child's envelope
and send with its request count, and at completion
``_complete_instance`` with the one completion count its mode names and
the notice back to the parent.  A message's delivery hands it straight
to the node's dispatch, with no mailbox ``put`` between.  The plugin's
optional hooks are bound once, when the system is wired: a hook with
nothing to do is ``None`` and costs no call, the executor's wait is
recorded only when it queued, and a constant service time is read
without a call.

This test submits a fixed set of 3V roots of span 2 (a root and one
child on another node, no faults, no advancement) under ``cProfile`` and
holds the profiled calls (Python frames and builtins alike, as
``pstats`` counts them) per subtransaction at or below what that chain
costs: 37.5 on Python 3.10, 3.11 and 3.12.  The chain whose ``write``
looked its chain up with ``dict.get`` and whose ``Increment.apply``
called ``isinstance`` paid 39.6, the chain that wrote with two store calls
(``ensure_version``, then ``apply_geq``), took each message id with
``next`` and delivered through ``Store.put`` paid 43.6, and the runtime
that also called every hook, recorded every zero wait, drew a constant
service time through a call and tested each op with ``isinstance`` paid
52.9.  The budget leaves half a call per subtransaction of slack, so a
hook, a store call or a builtin that comes back on this path fails
here.  The profiled region holds no comprehension, whose frame some
Python versions inline and others do not.
"""

from __future__ import annotations

import cProfile
import pstats

from repro.core import ThreeVSystem
from repro.storage import Increment
from repro.txn import ReadOp, SubtxnSpec, TransactionSpec, WriteOp
from repro.txn.history import History

NODES = ("a", "b", "c", "d")
ROOTS = 400
BUDGET = 38.0


def span_two(index: int) -> TransactionSpec:
    """Root ``index``: an update (two writes at its root, one at its
    child) or, every third one, a read of one item on both nodes."""
    home, away = NODES[index % 4], NODES[(index * 3 + 1) % 4]
    key = f"k{index % 16}"
    if index % 3 == 2:
        ops = [ReadOp(key)]
        child_ops = [ReadOp(key)]
    else:
        ops = [WriteOp(key, Increment(1)), WriteOp(key, Increment(2))]
        child_ops = [WriteOp(key, Increment(3))]
    return TransactionSpec(
        name=f"t{index}",
        root=SubtxnSpec(node=home, ops=ops,
                        children=[SubtxnSpec(node=away, ops=child_ops)]),
    )


def calls_per_subtxn() -> float:
    """Profiled calls per subtransaction of the fixed submission set."""
    system = ThreeVSystem(NODES, seed=7, history=History(events=()))
    for node in NODES:
        for item in range(16):
            system.load(node, f"k{item}", 0)
    for index in range(ROOTS):
        system.submit_at(index * 0.05, span_two(index))
    profiler = cProfile.Profile()
    profiler.enable()
    system.run()
    profiler.disable()
    history = system.history
    assert history.total_txns == ROOTS
    assert all(record.global_complete_time is not None
               for record in history.txns.values())
    return pstats.Stats(profiler).total_calls / (2 * ROOTS)


def test_calls_per_subtransaction_stay_within_budget():
    per_subtxn = calls_per_subtxn()
    assert per_subtxn <= BUDGET, f"{per_subtxn:.2f} calls per subtransaction"
