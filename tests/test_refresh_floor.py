"""The refresh's floor rule: where a ledgered write lands on a refreshed
replica whose chain no longer holds the write's version.

A write skipped for a down replica is re-applied at refresh at its
original version with the store's dual write.  If the replica's chain
has moved above that version while it was down, the write lands on the
chain's lowest live version instead, where a live replica's own garbage
collection would have folded it.  A write the transaction could still
compensate registers its subtransaction as executed on the refreshed
node, so a later compensator applies its inverse.

No benchmark workload or chaos spec reaches the floor case, so these
tests build it by hand: replica ``q`` crashes, a two-node transaction
skips its copy on ``q`` (version 1), ``q``'s chains are laid out around
that version, and ``q`` recovers and refreshes from ``p``.
"""

from repro.core import ThreeVSystem
from repro.faults import FaultPlan
from repro.placement import PlacementState
from repro.storage import Increment
from repro.txn import SubtxnSpec, TransactionSpec, WriteOp

AMOUNT = 100

#: ``q``'s chain of each key before the refresh, as ``{version: value}``.
CHAINS = {
    "below": {2: 10, 3: 20},        # floor 2 is above the write's version 1
    "at": {1: 10, 2: 20},           # floor 1 is the write's version
    "above": {0: 10, 1: 20, 2: 30},  # floor 0 is below it
}


def write_tree(name, keys, abort_child=False):
    """A root on ``p`` and one child on ``q``, each incrementing ``keys``.

    ``abort_child`` scripts the abort on the child.  Skipped, the child
    never runs, so the transaction commits, but it is one that can abort.
    """
    def ops():
        return [WriteOp(key, Increment(AMOUNT)) for key in keys]

    return TransactionSpec(
        name=name,
        root=SubtxnSpec(node="p", ops=ops(), children=[
            SubtxnSpec(node="q", ops=ops(), abort_here=abort_child)]),
    )


def refreshed():
    """Run the scenario; return the system once ``q`` is refreshed."""
    placement = PlacementState(refresh_delay=1.0)
    system = ThreeVSystem(["p", "q"], seed=1, faults=FaultPlan(),
                          placement=placement)
    for key in (*CHAINS, "fresh", "plain"):
        system.load("p", key, 0)
    for key, chain in CHAINS.items():
        for version, value in chain.items():
            system.load("q", key, value, version=version)
    system.load("q", "plain", 0)
    system.sim.schedule(0.5, system.crash, "q")
    system.submit_at(1.0, write_tree("t", [*CHAINS, "fresh"],
                                     abort_child=True))
    system.submit_at(1.5, write_tree("u", ["plain"]))
    system.sim.schedule(3.0, system.recover, "q")
    system.run(until=20.0)
    counters = system.counters()
    assert counters["writes_skipped"] == 2
    assert counters["refreshes_completed"] == 1
    assert counters["refresh_ops_applied"] == len(CHAINS) + 2
    assert system.history.txns["t"].version == 1
    return system


def test_a_write_below_the_floor_lands_on_the_floor():
    store = refreshed().node("q").store
    assert store.versions("below") == [2, 3]
    assert store.snapshot()["below"] == {2: 10 + AMOUNT, 3: 20 + AMOUNT}


def test_a_write_at_or_above_the_floor_dual_writes_from_its_version():
    store = refreshed().node("q").store
    assert store.snapshot()["at"] == {1: 10 + AMOUNT, 2: 20 + AMOUNT}
    assert store.snapshot()["above"] == {0: 10, 1: 20 + AMOUNT,
                                         2: 30 + AMOUNT}


def test_a_key_the_replica_never_held_is_created_at_the_write_version():
    store = refreshed().node("q").store
    assert store.snapshot()["fresh"] == {1: AMOUNT}
    assert store.snapshot()["plain"] == {0: 0, 1: AMOUNT}


def test_only_a_write_that_can_abort_registers_as_executed():
    system = refreshed()
    executed = system.node("q")._executed
    child = system.history.txns["t"]
    assert child.aborted is False
    assert executed.get("t") == {"t.0"}
    assert "u" not in executed
