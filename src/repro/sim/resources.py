"""Shared resources and queues for simulation processes.

``Resource`` models a capacity-limited resource (e.g. a vCPU, an invoker
slot): processes yield ``resource.request()`` and later call
``resource.release(req)``.  ``Store`` is an unbounded FIFO of Python objects
used as the backbone of message queues and mailboxes.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List

from repro.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulation


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim, name=f"request({resource.name})")
        self.resource = resource


class Resource:
    """A FIFO resource with fixed capacity.

    Usage inside a process::

        req = cpu.request()
        yield req
        try:
            yield sim.timeout(work_ms)
        finally:
            cpu.release(req)

    If the requesting process can be *interrupted*, release on
    ``req.triggered`` instead: a grant can race the interrupt (the slot is
    assigned, then the Interrupt is delivered before the process observes
    the grant), and an untriggered request is withdrawn automatically::

        req = cpu.request()
        try:
            yield req
            yield sim.timeout(work_ms)
        finally:
            if req.triggered:
                cpu.release(req)

    A grant carries no value (``yield req`` gives ``None``): the caller
    keeps the request object and releases that.  A waiter drops its
    ``on_abandoned`` hook, which closes over it, once granted or
    withdrawn.  So no request refers to itself, and a finished
    simulation is freed by refcounting.
    """

    def __init__(self, sim: "Simulation", capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users: List[Request] = []
        self._waiters: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted."""
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._waiters.append(req)
            # An interrupted waiter must not be granted a slot it can
            # never release.
            req.on_abandoned = lambda: self._discard_waiter(req)
        return req

    def _discard_waiter(self, req: Request) -> None:
        req.on_abandoned = None
        if req in self._waiters:
            self._waiters.remove(req)

    def release(self, req: Request) -> None:
        """Return a previously granted slot."""
        if req not in self._users:
            raise SimulationError(
                f"release of {req!r} which does not hold {self.name}")
        self._users.remove(req)
        if self._waiters:
            nxt = self._waiters.popleft()
            self._users.append(nxt)
            nxt.on_abandoned = None
            nxt.succeed()


class Store:
    """An unbounded FIFO store of items with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the next
    item, in strict arrival order; concurrent getters are served FIFO.  A
    getter that is served or withdrawn drops its ``on_abandoned`` hook,
    which closes over it.
    """

    def __init__(self, sim: "Simulation", name: str = "store") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Append *item*; wakes the oldest waiting getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.on_abandoned = None
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event firing with the next item (immediately if one is queued)."""
        event = Event(self.sim, name=f"get({self.name})")
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
            # An interrupted getter must not swallow the next item.
            event.on_abandoned = lambda: self._discard_getter(event)
        return event

    def _discard_getter(self, event: Event) -> None:
        event.on_abandoned = None
        if event in self._getters:
            self._getters.remove(event)

    def try_get(self) -> Any:
        """Pop the next item without blocking; raises if the store is empty."""
        if not self._items:
            raise SimulationError(f"try_get on empty store {self.name!r}")
        return self._items.popleft()
