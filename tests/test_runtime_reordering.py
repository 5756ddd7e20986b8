"""Uniform cross-protocol tests on the shared runtime.

Every protocol runs on the same :class:`repro.runtime.ProtocolNode`, so
properties of the *mechanism* — surviving non-FIFO message delivery,
compensation racing its own transaction, the facade surface — must hold
for every registered protocol.  These tests parameterize directly over
:data:`repro.runtime.PROTOCOLS` so a newly registered protocol is covered
automatically.
"""

import inspect

import pytest

from repro.errors import ReproError
from repro.net import LinkLatency, UniformLatency
from repro.runtime import PROTOCOLS, ProtocolRegistry, System
from repro.sim import Constant, Uniform
from repro.storage import Increment
from repro.txn import SubtxnSpec, TransactionSpec, WriteOp
from repro.workloads import build_system

ALL_PROTOCOLS = tuple(PROTOCOLS)
#: Protocols using the runtime's compensation path (2PC rolls back from
#: undo logs inside its commit protocol instead).
COMPENSATING = tuple(p for p in ALL_PROTOCOLS if p != "2pc")

NODES = ["p", "q", "r"]


def spanning_update(name, suffix=""):
    """One increment per node, on transaction-private keys."""
    return TransactionSpec(
        name=name,
        root=SubtxnSpec(
            node="p", ops=[WriteOp(f"x:{name}{suffix}", Increment(1))],
            children=[
                SubtxnSpec(node="q", ops=[WriteOp(f"y:{name}{suffix}", Increment(1))]),
                SubtxnSpec(node="r", ops=[WriteOp(f"z:{name}{suffix}", Increment(1))]),
            ],
        ),
    )


def record_link_traffic(system):
    """Wrap ``network.send`` to collect every in-flight envelope.

    ``delivered_at`` is stamped on delivery, so inspect the log only
    after the run has drained.
    """
    log = []
    original = system.network.send

    def recording_send(src, dst, kind, payload=None):
        message = original(src, dst, kind, payload)
        log.append(message)
        return message

    system.network.send = recording_send
    return log


def count_overtakes(log):
    """Messages delivered before an earlier-sent message on the same link."""
    overtakes = 0
    by_link = {}
    for message in log:
        if message.delivered_at is None:
            continue
        link = (message.src, message.dst)
        for earlier_sent, earlier_delivered in by_link.get(link, ()):
            if (message.sent_at > earlier_sent
                    and message.delivered_at < earlier_delivered):
                overtakes += 1
                break
        by_link.setdefault(link, []).append(
            (message.sent_at, message.delivered_at)
        )
    return overtakes


class TestNonFifoReordering:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_all_transactions_complete_under_heavy_jitter(self, protocol):
        """With latencies jittered 100x, messages genuinely overtake each
        other on every link — and every protocol must still drive all
        transactions to global completion with no aborts (the keys are
        transaction-private, so there is nothing to conflict on)."""
        system = build_system(
            protocol, NODES, seed=7,
            latency=UniformLatency(Uniform(0.1, 10.0)),
        )
        log = record_link_traffic(system)
        names = [f"t{index}" for index in range(8)]
        for index, name in enumerate(names):
            system.submit_at(0.25 * index, spanning_update(name))
        system.run(until=8.0)
        system.stop_policy()
        system.run_until_quiet(limit=10000.0)

        assert count_overtakes(log) > 0, "jitter produced no reordering"
        for name in names:
            record = system.history.txn(name)
            assert not record.aborted
            assert record.global_complete_time is not None

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_stores_converge_under_reordering(self, protocol):
        """Once quiet, the latest copy of every touched key holds the
        transaction's increment, whatever order the writes landed in."""
        system = build_system(
            protocol, NODES, seed=11,
            latency=UniformLatency(Uniform(0.1, 10.0)),
        )
        names = [f"u{index}" for index in range(6)]
        for index, name in enumerate(names):
            system.submit_at(0.3 * index, spanning_update(name))
        system.run(until=8.0)
        system.stop_policy()
        system.run_until_quiet(limit=10000.0)
        for name in names:
            for node, prefix in (("p", "x"), ("q", "y"), ("r", "z")):
                store = system.node(node).store
                key = f"{prefix}:{name}"
                assert store.read_max_leq(key, 10 ** 9) == 1, (
                    f"{protocol}: {key} lost its increment"
                )


class TestCompensationRacesItself:
    @pytest.mark.parametrize("protocol", COMPENSATING)
    def test_compensation_overtaking_original_leaves_no_residue(self, protocol):
        """An aborting sibling's compensation can overtake the victim
        subtransaction on a reordering link; the runtime's tombstone rule
        must suppress the victim on arrival, for every compensating
        protocol.  The race depends on each protocol's RNG consumption,
        so seeds are scanned until it fires at least once; the no-residue
        invariant must hold for *every* seed, raced or not."""
        overtook = 0
        for seed in range(12):
            system = build_system(
                protocol, ["p", "b", "c"], seed=seed,
                latency=LinkLatency(
                    links={("p", "c"): Uniform(1.0, 30.0)},  # reordering link
                    default=Constant(0.5),
                ),
            )
            system.load("p", "kp", 100)
            system.load("b", "kb", 100)
            system.load("c", "kc", 100)
            spec = TransactionSpec(
                name="t",
                root=SubtxnSpec(
                    node="p", ops=[WriteOp("kp", Increment(1))],
                    children=[
                        SubtxnSpec(node="b", ops=[WriteOp("kb", Increment(1))],
                                   abort_here=True),
                        SubtxnSpec(node="c", ops=[WriteOp("kc", Increment(1))]),
                    ],
                ),
            )
            system.submit(spec)
            system.run(until=60.0)
            system.stop_policy()
            system.run_until_quiet(limit=10000.0)

            record = system.history.txn("t")
            assert record.aborted and record.compensated
            assert record.global_complete_time is not None
            overtook += system.node("c").tombstones_created
            # No residue on any node, at any version.
            for node, key in (("p", "kp"), ("b", "kb"), ("c", "kc")):
                assert system.node(node).store.read_max_leq(key, 10 ** 9) == 100
        assert overtook > 0, "no seed produced the overtake race"


class TestUniformFacade:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_uniform_driving_surface(self, protocol):
        system = build_system(protocol, NODES, seed=0)
        assert isinstance(system, System)
        quiet = inspect.signature(system.run_until_quiet)
        assert "limit" in quiet.parameters
        assert inspect.signature(system.stop_policy).parameters == {}
        system.stop_policy()
        system.run_until_quiet(limit=1000.0)


class TestProtocolRegistry:
    def test_registry_names_and_order(self):
        assert tuple(PROTOCOLS) == ("3v", "nocoord", "manual",
                                    "manual-sync", "2pc")
        assert PROTOCOLS.strict() == ("3v", "2pc")
        assert len(PROTOCOLS) == 5
        assert "3v" in PROTOCOLS and "blockchain" not in PROTOCOLS

    def test_unknown_protocol_raises(self):
        with pytest.raises(ReproError, match="unknown protocol"):
            PROTOCOLS["blockchain"]
        assert PROTOCOLS.get("blockchain") is None

    def test_reregistration_must_be_identical(self):
        registry = ProtocolRegistry()
        builder = lambda node_ids, **kw: None  # noqa: E731
        registry.register("x", builder, order=0, description="d")
        registry.register("x", builder, order=0, description="d")  # idempotent
        with pytest.raises(ReproError, match="registered twice"):
            registry.register("x", builder, order=1, description="d")

    def test_workloads_reexports_the_registry(self):
        import repro.runtime
        import repro.workloads

        assert repro.workloads.PROTOCOLS is repro.runtime.PROTOCOLS

    def test_exp_spec_accepts_any_protocol_string(self):
        from repro.exp import ExperimentSpec

        # Specs stay constructible with any protocol string; the name is
        # validated at *run* time (in the fleet worker), not construction.
        spec = ExperimentSpec("not-a-protocol", seed=1)
        assert spec.protocol == "not-a-protocol"
