"""The "Global Synchronization" baseline (Section 1).

"The system can treat all global transactions ... as full-fledged
distributed transactions, performing global concurrency control and
two-phase commitment.  This solution guarantees global serializability ...
However, the delays due to global synchronization are often prohibitive."

Every transaction — reads included — runs under distributed strict
two-phase locking (shared NR locks for reads, exclusive NW locks for
writes) and commits with a full two-phase protocol (execution reports,
prepare round, votes, decision, acks).  Locks are held until the decision
arrives at each participant, so lock hold times include wide-area round
trips; deadlocks are avoided with wait-die on the root transaction's
submit timestamp, and aborted transactions can be retried a configurable
number of times.

The 2PL/2PC mechanics are :class:`~repro.runtime.twophase.TwoPhaseEngine`
(shared verbatim with NC3V); this baseline runs *everything* — not just
non-commuting transactions — through it, at the single version 0.

The point of this baseline is the *shape* of its cost: latency grows with
node count and network delay, readers block writers and vice versa, and
throughput saturates — exactly the behaviour that makes practitioners
turn off global coordination in data recording systems.
"""

from __future__ import annotations

import functools
import typing

from repro.net.message import Message
from repro.runtime.node import ProtocolNode
from repro.runtime.plugin import ProtocolPlugin
from repro.runtime.registry import PROTOCOLS
from repro.runtime.system import System
from repro.runtime.twophase import TwoPhaseEngine
from repro.txn.runtime import SubtxnInstance
from repro.txn.spec import TransactionSpec

#: A 2PC node is the runtime node; the plugin attaches its engine as
#: ``node.twophase``.
TwoPCNode = ProtocolNode


class TwoPCEngine(TwoPhaseEngine):
    """The shared engine, reporting root outcomes for the retry loop."""

    def on_finished(self, instance: SubtxnInstance, committed: bool) -> None:
        self.node.system.txn_finished(instance.txn, committed)


class TwoPCPlugin(ProtocolPlugin):
    """Divert every transaction into the two-phase-commit engine."""

    def init_node(self, node) -> None:
        node.twophase = TwoPCEngine(node)

    def takeover(self, node, instance: SubtxnInstance, kind: str):
        return functools.partial(node.twophase.run_subtxn, instance)

    def handle_message(self, node, message: Message) -> None:
        if node.twophase.handles(message.kind):
            node.twophase.dispatch(message)
        else:
            super().handle_message(node, message)


class TwoPCSystem(System):
    """A cluster where every transaction is a full distributed transaction.

    Args:
        retries: How many times an aborted transaction is automatically
            resubmitted (each attempt appears in the history under
            ``name~rK``).
        retry_backoff: Base delay before resubmission; doubles on each
            successive attempt (exponential backoff, so retries survive
            lock holders whose 2PC rounds span several network RTTs).
    """

    plugin_class = TwoPCPlugin

    def __init__(self, node_ids, retries: int = 3,
                 retry_backoff: float = 0.5, **kwargs):
        super().__init__(node_ids, **kwargs)
        self.retries = retries
        self.retry_backoff = retry_backoff
        self._attempts: typing.Dict[str, int] = {}

    def txn_finished(self, spec: TransactionSpec, committed: bool) -> None:
        """Root-node callback: schedule a retry for an aborted transaction."""
        if committed:
            return
        base_name = spec.name.split("~r")[0]
        attempt = self._attempts.get(base_name, 0)
        if attempt >= self.retries:
            return
        self._attempts[base_name] = attempt + 1
        retry_spec = _rename(spec, f"{base_name}~r{attempt + 1}")
        backoff = self.retry_backoff * (2 ** attempt)
        self.sim.schedule(backoff, self._retry, retry_spec)

    def _retry(self, spec: TransactionSpec) -> None:
        """Route a retry like a submission, but do not count it as one."""
        self.submit(spec)
        self._submitted -= 1


def _rename(spec: TransactionSpec, new_name: str) -> TransactionSpec:
    """Clone a spec under a new name (tree structure is shared, immutable)."""
    return TransactionSpec(
        name=new_name, root=spec.root, priority_hint=spec.priority_hint
    )


def _build_2pc(node_ids, *, seed, latency, node_config,
               advancement_period, safety_delay, poll_interval,
               allow_noncommuting, faults=None, batch_delivery=False,
               history=None, placement=None):
    return TwoPCSystem(
        node_ids, seed=seed, latency=latency, node_config=node_config,
        faults=faults, batch_delivery=batch_delivery,
        history=history, placement=placement,
    )


PROTOCOLS.register(
    "2pc", _build_2pc, order=4, strict_audit=True,
    description="distributed strict 2PL + two-phase commit for every "
                "transaction",
)
