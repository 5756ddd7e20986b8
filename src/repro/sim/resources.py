"""Shared resources for simulated processes.

Two primitives cover everything the library needs:

* :class:`Resource` — a counted semaphore with FIFO queuing, used to model a
  node's local executor (capacity = multiprogramming level).
* :class:`Store` — an unbounded FIFO queue of items with blocking ``get``,
  used as a process mailbox for network message delivery.

Each has two waiting styles.  Generator processes wait on an event
(:meth:`Resource.request`, :meth:`Store.get`).  Straight-line callers —
the node runtime's per-subtransaction path — register a callback instead
(:meth:`Resource.acquire`, :meth:`Store.consume`) and pay no event, no
process and no scheduled hand-over when nothing has to wait.
"""

from __future__ import annotations

import collections
import typing

from repro.errors import SimulationError
from repro.sim.events import Event

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
        #: Waiters in arrival order: ``(event, callback, args, enqueued_at)``
        #: with ``event`` set for :meth:`request` and ``callback`` for
        #: :meth:`acquire` — one queue, so the two styles share one FIFO.
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

    def request(self) -> Event:
        """Ask for one unit of capacity.

        Returns:
            An event that triggers when the unit is granted.  The caller must
            eventually call :meth:`release`.
        """
        event = Event(self.sim)
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            event.succeed()
        else:
            self.total_waits += 1
            self._queue.append((event, None, None, self.sim.now))
        return event

    def acquire(self, callback, *args) -> bool:
        """Ask for one unit of capacity without allocating an event.

        Returns:
            ``True`` if the unit was granted on the spot — ``callback`` is
            *not* called and the caller carries straight on.  ``False`` if
            the caller has to wait: ``callback(*args)`` then runs as its own
            scheduled callback at the time of the grant (where an event
            waiter's resume would run).  Either way the holder must
            eventually call :meth:`release`.
        """
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            return True
        self.total_waits += 1
        self._queue.append((None, callback, args, self.sim.now))
        return False

    def release(self) -> None:
        """Return one unit of capacity, waking the longest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._queue:
            event, callback, args, enqueued_at = self._queue.popleft()
            self.total_wait_time += self.sim.now - enqueued_at
            if event is not None:
                event.succeed()
            else:
                self.sim.schedule_now(callback, *args)
        else:
            self._in_use -= 1


class Store:
    """An unbounded FIFO queue with blocking ``get`` — a process mailbox.

    A store is read either by processes blocking on :meth:`get` or by one
    registered :meth:`consume` callback, never both.
    """

    __slots__ = ("sim", "_items", "_getters", "total_puts", "_frozen",
                 "_consumer", "_pumping")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._items: collections.deque = collections.deque()
        self._getters: collections.deque = collections.deque()
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
        """Stop handing items to getters or the consumer; ``put`` queues
        silently.

        Used to model a crashed node or coordinator: its mailbox keeps
        accepting messages (so no message is ever lost by the transport),
        but nothing is handed over until :meth:`thaw`.  For a getter-driven
        reader, killing the loop process instead would strand its pending
        getter event, which would swallow the next ``put`` — freezing
        avoids that hazard entirely.
        """
        self._frozen = True

    def thaw(self) -> None:
        """Resume delivery: re-pair queued items with waiting getters, or
        start pumping the backlog into the consumer."""
        self._frozen = False
        if self._consumer is not None:
            self._schedule_pump()
            return
        while self._items and self._getters:
            self._getters.popleft().succeed(self._items.popleft())

    def put(self, item) -> None:
        """Deposit an item.

        A consumer gets it on the spot unless the store is frozen or
        still has a backlog ahead of it; otherwise the oldest waiting
        getter, if any, is woken.
        """
        self.total_puts += 1
        if self._consumer is not None:
            if self._frozen or self._items:
                self._items.append(item)
            else:
                self._consumer(item)
        elif self._getters and not self._frozen:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def consume(self, callback) -> None:
        """Hand every item to ``callback(item)`` instead of to getters.

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

    def get(self) -> Event:
        """Take the oldest item, waiting if the store is empty.

        Returns:
            An event whose value is the retrieved item.
        """
        event = Event(self.sim)
        if self._items and not self._frozen:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def abandon_getters(self) -> None:
        """Discard every waiting getter (their events never trigger).

        The teardown primitive for killing a consumer process: a killed
        process's pending getter would otherwise stay queued and swallow
        the next ``put`` — the item would succeed a dead event and be lost.
        Callers kill the consumer, abandon its getters, and (typically)
        freeze the store until a successor takes over.
        """
        self._getters.clear()

    def take_nowait(self):
        """Take the oldest queued item without blocking.

        Returns:
            The item, or ``None`` when the store is empty (or frozen).
            This is the mailbox-drain primitive for batched delivery: a
            consumer that just woke from :meth:`get` empties the backlog
            synchronously instead of paying one event + one scheduled
            callback per queued item.
        """
        if self._items and not self._frozen:
            return self._items.popleft()
        return None

    def drain(self) -> list:
        """Remove and return all currently queued items without blocking."""
        items = list(self._items)
        self._items.clear()
        return items
