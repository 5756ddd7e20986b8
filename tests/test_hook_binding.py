"""Which optional plugin hooks each protocol binds, and what they do.

``takeover``, ``pre_execute``, ``on_subtxn_executed``,
``on_instance_complete`` and ``on_root_complete`` are ``None`` on a
:class:`~repro.runtime.plugin.ProtocolPlugin` unless the plugin binds
them, and the node calls only the bound ones.  3V binds them in ``bind()``
from the system's configuration: the completion count on one of the two
completion hooks (``NodeConfig.completion``), commute locks and their
release only with locking on, the two-phase takeover only with NC3V.
2PC runs every transaction through its engine, so it binds ``takeover``
as a method; nocoord binds nothing.
"""

from __future__ import annotations

import pytest

from repro.baselines.nocoord import NoCoordSystem
from repro.baselines.twopc import TwoPCSystem
from repro.core import NodeConfig, ThreeVSystem
from repro.errors import ProtocolError
from repro.storage import Assign
from repro.txn import SubtxnSpec, TransactionSpec, TxnKind, WriteOp
from tests.test_detectors import chain_txn, straggler_system

OPTIONAL_HOOKS = ("takeover", "pre_execute", "on_subtxn_executed",
                  "on_instance_complete", "on_root_complete")
NODES = ["p", "q"]


def bound(system) -> set:
    return {name for name in OPTIONAL_HOOKS
            if getattr(system.plugin, name) is not None}


@pytest.mark.parametrize("build, hooks", [
    (lambda: ThreeVSystem(NODES), {"on_instance_complete"}),
    (lambda: ThreeVSystem(NODES, node_config=NodeConfig(
        completion="immediate")), {"on_subtxn_executed"}),
    (lambda: ThreeVSystem(NODES, allow_noncommuting=True),
     {"takeover", "pre_execute", "on_instance_complete", "on_root_complete"}),
    (lambda: ThreeVSystem(NODES, allow_noncommuting=True,
                          node_config=NodeConfig(completion="immediate")),
     {"takeover", "pre_execute", "on_subtxn_executed", "on_root_complete"}),
    (lambda: TwoPCSystem(NODES), {"takeover"}),
    (lambda: NoCoordSystem(NODES), set()),
], ids=["3v", "3v-immediate", "nc3v", "nc3v-immediate", "2pc", "nocoord"])
def test_a_plugin_binds_exactly_the_hooks_with_work(build, hooks):
    assert bound(build()) == hooks


def completions_at(system, node_id: str) -> int:
    return system.nodes[node_id].counters.completion_total(1)


@pytest.mark.parametrize("completion, counted", [
    # Immediate: p's root counts once it has dispatched its child, q's
    # child once it has dispatched the grandchild, while that grandchild
    # is still in transit back to p.
    ("immediate", {"p": 1, "q": 1}),
    # Hierarchical: nothing counts before the grandchild has run.
    ("hierarchical", {"p": 0, "q": 0}),
])
def test_completion_is_counted_when_the_mode_says(completion, counted):
    system = straggler_system("two-wave", completion=completion)
    system.submit_at(9.5, chain_txn())
    # The child lands on q at 14.0; the grandchild on p at 19.0.
    system.run(until=15.0)
    assert {node: completions_at(system, node) for node in NODES} == counted
    system.run_until_quiet()
    # Either way, every subtransaction counts exactly once: the root and
    # the grandchild on p, the child on q.
    assert {node: completions_at(system, node) for node in NODES} == {
        "p": 2, "q": 1}


def nc_assign(name: str) -> TransactionSpec:
    return TransactionSpec(
        name=name, root=SubtxnSpec(node="p", ops=[WriteOp("x", Assign(1))]))


@pytest.mark.parametrize("node_config", [None, NodeConfig(enable_locking=True)],
                         ids=["plain", "locking-without-nc3v"])
def test_a_non_commuting_spec_without_nc3v_is_refused_at_submit(node_config):
    system = ThreeVSystem(NODES, node_config=node_config)
    with pytest.raises(ProtocolError, match="is non-commuting; construct "
                       "the system with allow_noncommuting=True"):
        system.submit(nc_assign("nc"))
    assert system.submitted_count == 0


def test_a_non_commuting_spec_under_nc3v_takes_the_two_phase_path(
        monkeypatch):
    system = ThreeVSystem(NODES, allow_noncommuting=True)
    system.load("p", "x", 0)
    engine = system.nodes["p"].nc3v
    taken = []
    run_subtxn = engine.run_subtxn
    monkeypatch.setattr(engine, "run_subtxn", lambda instance, then: (
        taken.append(instance.sid), run_subtxn(instance, then)))
    system.submit(nc_assign("nc"))
    system.run_until_quiet()
    record = system.history.txn("nc")
    assert taken == ["nc"]
    assert record.kind == TxnKind.NONCOMMUTING
    assert record.global_complete_time is not None and not record.aborted
    assert system.value_at("p", "x", version=1) == 1
