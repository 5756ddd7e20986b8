"""Shared resources for simulated activities.

Two primitives cover everything the library needs:

* :class:`Resource` — a counted semaphore with FIFO queuing, used to model a
  node's local executor (capacity = multiprogramming level).
* :class:`Store` — an unbounded FIFO queue of items, used as a mailbox for
  network message delivery.

Both are waited on with a callback (:meth:`Resource.acquire`,
:meth:`Store.consume`): a caller that does not have to wait pays no event
and no scheduled hand-over.
"""

from __future__ import annotations

import collections
import typing

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator


class Resource:
    """A counted, FIFO-fair resource.

    Args:
        sim: The owning simulator.
        capacity: Number of simultaneous holders allowed.

    Statistics:
        ``total_waits`` counts requests that could not be granted immediately,
        and ``total_wait_time`` accumulates their queueing delay — the raw
        material for the paper's "never delayed" claims.
    """

    __slots__ = ("sim", "capacity", "_in_use", "_queue", "total_waits",
                 "total_wait_time")

    def __init__(self, sim: "Simulator", capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        #: Waiters in arrival order: ``(callback, args, enqueued_at)``.
        self._queue: collections.deque = collections.deque()
        self.total_waits = 0
        self.total_wait_time = 0.0

    @property
    def in_use(self) -> int:
        """Number of currently granted (unreleased) requests."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for capacity."""
        return len(self._queue)

    def acquire(self, callback, *args) -> bool:
        """Ask for one unit of capacity without allocating an event.

        Returns:
            ``True`` if the unit was granted on the spot — ``callback`` is
            *not* called and the caller carries straight on.  ``False`` if
            the caller has to wait: ``callback(*args)`` then runs as its own
            scheduled callback at the time of the grant.  Either way the holder must
            eventually call :meth:`release`.
        """
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            return True
        self.total_waits += 1
        self._queue.append((callback, args, self.sim.now))
        return False

    def release(self) -> None:
        """Return one unit of capacity, waking the longest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching acquire()")
        if self._queue:
            callback, args, enqueued_at = self._queue.popleft()
            self.total_wait_time += self.sim.now - enqueued_at
            self.sim.schedule_now(callback, *args)
        else:
            self._in_use -= 1


class Store:
    """An unbounded FIFO queue — a mailbox, read by one :meth:`consume`
    callback."""

    __slots__ = ("sim", "_items", "total_puts", "_frozen", "_consumer",
                 "_pumping")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._items: collections.deque = collections.deque()
        self.total_puts = 0
        self._frozen = False
        self._consumer = None
        #: A :meth:`_pump` callback is scheduled and not yet run.
        self._pumping = False

    def __len__(self) -> int:
        return len(self._items)

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> None:
        """Stop handing items to the consumer; ``put`` queues silently.

        Used to model a crashed node or coordinator: its mailbox keeps
        accepting messages (so no message is ever lost by the transport),
        but nothing is handed over until :meth:`thaw`.
        """
        self._frozen = True

    def thaw(self) -> None:
        """Resume delivery: start pumping the backlog into the consumer."""
        self._frozen = False
        if self._consumer is not None:
            self._schedule_pump()

    def put(self, item) -> None:
        """Deposit an item.

        The consumer gets it on the spot unless the store is frozen or
        still has a backlog ahead of it (or there is no consumer yet).
        :meth:`repro.net.network.Network._deliver` makes this same
        hand-over inline for every delivered message.
        """
        self.total_puts += 1
        if self._consumer is None or self._frozen or self._items:
            self._items.append(item)
        else:
            self._consumer(item)

    def consume(self, callback) -> None:
        """Hand every item to ``callback(item)``.

        The callback runs inside :meth:`put` — no event, no wake — while
        the store is neither frozen nor backlogged.  A backlog (items put
        while frozen) is pumped after :meth:`thaw` one item per scheduled
        callback, oldest first, so other same-tick work interleaves with
        the drain and a :meth:`freeze` landing mid-drain stops it at the
        next item.  Items put while a backlog remains queue behind it.
        """
        self._consumer = callback
        self._schedule_pump()

    def _schedule_pump(self) -> None:
        if self._items and not self._pumping:
            self._pumping = True
            self.sim.schedule_now(self._pump)

    def _pump(self) -> None:
        self._pumping = False
        # Re-check at hand-over: the store may have been frozen (or
        # drained) between the scheduling of this callback and its run.
        if self._frozen or not self._items:
            return
        item = self._items.popleft()
        self._consumer(item)
        self._schedule_pump()

    def drain(self) -> list:
        """Remove and return all currently queued items without blocking."""
        items = list(self._items)
        self._items.clear()
        return items
