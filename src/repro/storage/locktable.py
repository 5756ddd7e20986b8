"""Lock table with commuting and non-commuting modes (Section 5).

The NC3V extension requires well-behaved transactions to take special
*commuting-read* (CR) and *commuting-write* (CW) locks, while
non-well-behaved transactions take classical *non-commuting* read/write
locks (NR/NW).  "Commuting locks are compatible with each other but not
with their non-commuting counterparts", so:

========  ====  ====  ====  ====
holder →   CR    CW    NR    NW
requester
========  ====  ====  ====  ====
CR         ok    ok    ok    --
CW         ok    ok    --    --
NR         ok    --    ok    --
NW         --    --    --    --
========  ====  ====  ====  ====

In the absence of non-commuting transactions every request is CR/CW and is
granted immediately — preserving the 3V zero-wait property.  Deadlocks can
only involve non-commuting transactions; they are avoided with the classic
*wait-die* policy keyed on the root transaction's start timestamp.
"""

from __future__ import annotations

import collections
import typing

from repro.errors import DeadlockAbort, LockError
from repro.sim.events import Event
from repro.sim.simulator import Simulator


class LockMode:
    """Lock mode constants."""

    CR = "CR"  # commuting read
    CW = "CW"  # commuting write
    NR = "NR"  # non-commuting read
    NW = "NW"  # non-commuting write

    ALL = (CR, CW, NR, NW)


_COMPATIBLE: typing.Dict[str, frozenset] = {
    LockMode.CR: frozenset({LockMode.CR, LockMode.CW, LockMode.NR}),
    LockMode.CW: frozenset({LockMode.CR, LockMode.CW}),
    LockMode.NR: frozenset({LockMode.CR, LockMode.NR}),
    LockMode.NW: frozenset(),
}

#: Within a family, the write mode subsumes the read mode.
_STRENGTH = {LockMode.CR: 0, LockMode.CW: 1, LockMode.NR: 0, LockMode.NW: 1}
_FAMILY = {
    LockMode.CR: "commuting",
    LockMode.CW: "commuting",
    LockMode.NR: "non-commuting",
    LockMode.NW: "non-commuting",
}


def compatible(requested: str, held: str) -> bool:
    """Whether a ``requested`` mode can coexist with a ``held`` mode."""
    try:
        return held in _COMPATIBLE[requested]
    except KeyError:
        raise LockError(f"unknown lock mode: {requested!r}") from None


class _Waiter(typing.NamedTuple):
    event: Event
    txn_id: str
    mode: str
    timestamp: float
    enqueued_at: float


class LockTable:
    """Per-node lock manager with FIFO queues and wait-die avoidance.

    Args:
        sim: The owning simulator (for wait-time accounting and events).

    Statistics:
        ``immediate_grants``, ``waits``, ``wait_time`` and ``deadlock_aborts``
        feed experiment C6 (cost of non-commuting transactions).
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._holders: typing.Dict[typing.Hashable, typing.Dict[str, str]] = {}
        self._queues: typing.Dict[typing.Hashable, collections.deque] = {}
        # Value dicts are insertion-ordered sets: ``release_all`` iterates
        # them, and set iteration order would vary with the per-process
        # hash seed — waking waiters in a different order run to run.
        self._keys_by_txn: typing.Dict[str, typing.Dict] = {}
        # Root-transaction start timestamps of current holders (wait-die).
        self._timestamps: typing.Dict[str, float] = {}
        self.immediate_grants = 0
        self.waits = 0
        self.wait_time = 0.0
        self.deadlock_aborts = 0

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------

    def acquire(self, key, mode: str, txn_id: str, timestamp: float) -> Event:
        """Request ``key`` in ``mode`` for transaction ``txn_id``.

        Returns:
            An event that succeeds when the lock is granted, or fails with
            :class:`DeadlockAbort` if wait-die kills the request.

        The ``timestamp`` is the root transaction's start time: an older
        transaction (smaller timestamp) may wait for a younger one; a
        younger transaction requesting a lock held by an older one *dies*.
        """
        if mode not in LockMode.ALL:
            raise LockError(f"unknown lock mode: {mode!r}")
        event = Event(self.sim)
        holders = self._holders.setdefault(key, {})
        held = holders.get(txn_id)
        if held is not None:
            self._regrant(key, holders, txn_id, held, mode, event)
            return event
        queue = self._queues.setdefault(key, collections.deque())
        conflicts = [
            (other, other_mode)
            for other, other_mode in holders.items()
            if not compatible(mode, other_mode)
        ]
        if not conflicts and not queue:
            holders[txn_id] = mode
            self._keys_by_txn.setdefault(txn_id, {})[key] = None
            self._timestamps.setdefault(txn_id, timestamp)
            self.immediate_grants += 1
            event.succeed()
            return event
        # Wait-die: die unless strictly older than every conflicting holder.
        holder_stamps = [
            self._timestamps.get(other) for other, _mode in conflicts
        ]
        if any(stamp is not None and timestamp >= stamp for stamp in holder_stamps):
            self.deadlock_aborts += 1
            event.fail(DeadlockAbort(f"wait-die on {key!r}"))
            return event
        self.waits += 1
        queue.append(_Waiter(event, txn_id, mode, timestamp, self.sim.now))
        return event

    def _regrant(self, key, holders, txn_id, held: str, mode: str,
                 event: Event) -> None:
        """Handle a request by a transaction already holding the key."""
        if _FAMILY[held] != _FAMILY[mode]:
            raise LockError(
                f"txn {txn_id!r} mixing {held} and {mode} on {key!r}"
            )
        if _STRENGTH[mode] <= _STRENGTH[held]:
            event.succeed()
            return
        # Upgrade: must be compatible with all *other* holders.
        blockers = [
            other for other, other_mode in holders.items()
            if other != txn_id and not compatible(mode, other_mode)
        ]
        if blockers:
            # Upgrades never wait in this model; conflicting upgrade dies.
            self.deadlock_aborts += 1
            event.fail(DeadlockAbort(f"upgrade conflict on {key!r}"))
            return
        holders[txn_id] = mode
        event.succeed()

    # ------------------------------------------------------------------
    # Release
    # ------------------------------------------------------------------

    def release_all(self, txn_id: str) -> None:
        """Release every lock held by ``txn_id`` and wake eligible waiters."""
        keys = self._keys_by_txn.pop(txn_id, ())
        self._timestamps.pop(txn_id, None)
        for key in keys:
            holders = self._holders.get(key)
            if holders is None:
                continue
            holders.pop(txn_id, None)
            self._wake(key)

    def cancel_waits(self, txn_id: str) -> None:
        """Cancel any queued (not yet granted) requests of ``txn_id``.

        Cancelled requests fail with :class:`DeadlockAbort` so a waiter
        blocked on one is woken rather than hung forever.
        """
        for key, queue in self._queues.items():
            kept = []
            cancelled = []
            for waiter in queue:
                if waiter.txn_id == txn_id:
                    cancelled.append(waiter)
                else:
                    kept.append(waiter)
            if cancelled:
                queue.clear()
                queue.extend(kept)
                for waiter in cancelled:
                    if not waiter.event.triggered:
                        waiter.event.fail(
                            DeadlockAbort(f"request cancelled on {key!r}")
                        )
                self._wake(key)

    def _wake(self, key) -> None:
        """Grant queued requests FIFO while they remain compatible."""
        holders = self._holders.setdefault(key, {})
        queue = self._queues.get(key)
        if not queue:
            return
        while queue:
            waiter = queue[0]
            blocked = any(
                not compatible(waiter.mode, held_mode)
                for other, held_mode in holders.items()
                if other != waiter.txn_id
            )
            if blocked:
                break
            queue.popleft()
            existing = holders.get(waiter.txn_id)
            if existing is None or _STRENGTH[waiter.mode] > _STRENGTH[existing]:
                holders[waiter.txn_id] = waiter.mode
            self._keys_by_txn.setdefault(waiter.txn_id, {})[key] = None
            self._timestamps.setdefault(waiter.txn_id, waiter.timestamp)
            self.wait_time += self.sim.now - waiter.enqueued_at
            waiter.event.succeed()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def holders_of(self, key) -> typing.Dict[str, str]:
        """Copy of ``{txn_id: mode}`` currently holding ``key``."""
        return dict(self._holders.get(key, {}))

    def held_keys(self, txn_id: str) -> set:
        """Keys on which ``txn_id`` currently holds locks."""
        return set(self._keys_by_txn.get(txn_id, ()))

    def queue_length(self, key) -> int:
        return len(self._queues.get(key, ()))
