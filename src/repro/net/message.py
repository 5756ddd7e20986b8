"""Message types exchanged between simulated nodes.

Every inter-node interaction in the library — subtransaction dispatch,
completion notices, version-advancement control traffic, lock releases,
two-phase-commit votes — travels as a :class:`Message`.  Keeping a single
envelope type lets the network layer account for *all* traffic uniformly,
which feeds the paper's "messages are asynchronous with user transactions"
accounting (experiment C7 and the message-overhead columns of C1).
"""

from __future__ import annotations

import dataclasses
import sys
import typing

__all__ = ["Message", "MessageKind"]

# Kind constants are interned: every message carries one, and the stats /
# mailbox dispatch paths key dicts by kind on every send, so identity-equal
# strings let those lookups hit CPython's pointer-compare fast path.
_intern = sys.intern


class MessageKind:
    """String constants naming every message type in the system."""

    # User-transaction traffic.
    SUBTXN_REQUEST = _intern("subtxn-request")
    COMPLETION_NOTICE = _intern("completion-notice")
    COMPENSATION = _intern("compensation")
    # 3V version-advancement control traffic (Section 4.3 phases).
    START_ADVANCEMENT = _intern("start-advancement")
    START_ADVANCEMENT_ACK = _intern("start-advancement-ack")
    COUNTER_READ = _intern("counter-read")
    COUNTER_READ_REPLY = _intern("counter-read-reply")
    READ_ADVANCE = _intern("read-advance")
    READ_ADVANCE_ACK = _intern("read-advance-ack")
    GARBAGE_COLLECT = _intern("garbage-collect")
    GARBAGE_COLLECT_ACK = _intern("garbage-collect-ack")
    # Coordinator lease heartbeat (failover mode only: sent solely when a
    # lease interval is configured, so default runs carry none of these).
    COORDINATOR_HEARTBEAT = _intern("coordinator-heartbeat")
    # Baseline control traffic (manual versioning / synchronous switches).
    FREEZE = _intern("freeze")
    FREEZE_ACK = _intern("freeze-ack")
    UNFREEZE = _intern("unfreeze")
    ACTIVE_QUERY = _intern("active-query")
    ACTIVE_REPLY = _intern("active-reply")
    # Replica refresh traffic (recovery-readability, repro.placement).
    REFRESH_REQUEST = _intern("refresh-request")
    REFRESH_REPLY = _intern("refresh-reply")
    # NC3V / two-phase commit traffic (Section 5).
    LOCK_RELEASE = _intern("lock-release")
    PREPARE = _intern("prepare")
    VOTE = _intern("vote")
    DECISION = _intern("decision")
    DECISION_ACK = _intern("decision-ack")
    # Transport-level acknowledgement (reliable delivery, repro.net.network).
    # Deliberately in none of the kind buckets below: acks are consumed by
    # the transport and never reach a mailbox, so they must not inflate the
    # paper's user/control/commit message accounting.
    NET_ACK = _intern("net-ack")

    USER_KINDS = frozenset({SUBTXN_REQUEST, COMPLETION_NOTICE, COMPENSATION})
    CONTROL_KINDS = frozenset(
        {
            START_ADVANCEMENT,
            START_ADVANCEMENT_ACK,
            COUNTER_READ,
            COUNTER_READ_REPLY,
            READ_ADVANCE,
            READ_ADVANCE_ACK,
            GARBAGE_COLLECT,
            GARBAGE_COLLECT_ACK,
            COORDINATOR_HEARTBEAT,
            FREEZE,
            FREEZE_ACK,
            UNFREEZE,
            ACTIVE_QUERY,
            ACTIVE_REPLY,
            REFRESH_REQUEST,
            REFRESH_REPLY,
        }
    )
    COMMIT_KINDS = frozenset({LOCK_RELEASE, PREPARE, VOTE, DECISION, DECISION_ACK})


#: The id the next envelope built without one takes (never reset).
_next_id = 0


@dataclasses.dataclass(slots=True, init=False)
class Message:
    """An envelope delivered from one node to another.

    Attributes:
        src: Sending node id.
        dst: Receiving node id.
        kind: One of the :class:`MessageKind` constants.
        payload: Arbitrary message body (specs, counters, version numbers).
        sent_at: Simulation time the message entered the network.
        delivered_at: Simulation time it reached the destination mailbox
            (filled in by the network on delivery).
        message_id: Sequence number, unique within the process: a
            second simulation in the same process continues the count.
            Copies of one message (a retransmit, a dup) share it.
    """

    src: str
    dst: str
    kind: str
    payload: typing.Any
    sent_at: float
    delivered_at: typing.Optional[float]
    message_id: int

    def __init__(self, src: str, dst: str, kind: str,
                 payload: typing.Any = None, sent_at: float = 0.0,
                 delivered_at: typing.Optional[float] = None,
                 message_id: typing.Optional[int] = None):
        global _next_id
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.sent_at = sent_at
        self.delivered_at = delivered_at
        if message_id is None:
            message_id = _next_id
            _next_id += 1
        self.message_id = message_id

    def copy(self) -> "Message":
        """Another physical copy of this message, not yet delivered.

        Same ``message_id`` on purpose, so receiver-side dedup knows it;
        a fresh envelope keeps two deliveries from fighting over
        ``delivered_at``.
        """
        return Message(self.src, self.dst, self.kind, self.payload,
                       self.sent_at, None, self.message_id)

    @property
    def latency(self) -> float:
        """Network delay experienced by the message (delivery - send)."""
        if self.delivered_at is None:
            raise ValueError("message not delivered yet")
        return self.delivered_at - self.sent_at

    def __repr__(self) -> str:
        return (
            f"Message(#{self.message_id} {self.kind} {self.src}->{self.dst} "
            f"@{self.sent_at:.3f})"
        )
