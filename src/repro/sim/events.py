"""Events: the unit of scheduling in the discrete-event kernel.

An :class:`Event` is a one-shot occurrence on the simulation timeline.
Processes (see :mod:`repro.sim.process`) yield events to suspend until the
event fires.  Events carry a *value* (delivered to every waiter) and an *ok*
flag; a failed event re-raises its value as an exception inside each waiting
process, mirroring how real async frameworks propagate errors.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulation

PENDING = object()
"""Sentinel for an event value that has not been decided yet."""

# Free-list cap for the pooled callbacks lists: bounds worst-case
# retained memory after a burst.
_CB_POOL_MAX = 1024


class Event:
    """A one-shot occurrence that processes can wait on.

    Events move through three states: *untriggered* (just created),
    *triggered* (scheduled on the event heap with a value), and *processed*
    (callbacks ran).  Triggering twice is an error — it almost always
    indicates two components believe they own the same completion.
    """

    __slots__ = ("sim", "name", "callbacks", "_value", "_ok", "on_abandoned")

    def __init__(self, sim: "Simulation", name: str = "") -> None:
        self.sim = sim
        self.name = name
        # Callbacks lists are pooled: short-lived events dominate replays,
        # and the empty list is the single hottest allocation after the
        # queue entry tuple itself.  Lists are recycled (cleared) by
        # _run_callbacks once the event is processed.
        cb_pool = sim._cb_pool
        self.callbacks: Optional[List[Callable[["Event"], None]]] = (
            cb_pool.pop() if cb_pool else [])
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: Called when the last waiter detaches before the event fired
        #: (e.g. an interrupted process).  Resources/stores use this to
        #: drop dangling queue entries instead of granting to the dead.
        self.on_abandoned: Optional[Callable[[], None]] = None

    # -- state inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value.  Only valid once triggered."""
        if self._value is PENDING:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering *value* to waiters."""
        self._trigger(True, value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; *exc* is raised in each waiter."""
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        self._trigger(False, exc)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self.triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._ok = ok
        self._value = value
        self.sim._schedule(self)

    # -- internal -----------------------------------------------------------
    def _fire(self) -> None:
        """Kernel hook: apply any deferred outcome, then run callbacks."""
        self._run_callbacks()

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(self)
        # Recycle only on clean completion: if a callback raised, the
        # list may be mid-iteration state and is left for the GC.
        callbacks.clear()
        cb_pool = self.sim._cb_pool
        if len(cb_pool) < _CB_POOL_MAX:
            cb_pool.append(callbacks)

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        label = self.name or self.__class__.__name__
        return f"<{label} {state} at t={self.sim.now:.3f}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    The outcome is deferred: the timeout only counts as *triggered* once the
    simulation clock reaches its deadline, so conditions waiting on it
    behave correctly.
    """

    __slots__ = ("delay", "_deferred_value")

    def __init__(self, sim: "Simulation", delay: float, value: Any = None,
                 name: str = "") -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Timeouts are the most common event of every replay, so this is
        # Event.__init__ plus Simulation._schedule written out in place:
        # the same slots, a pooled callbacks list, and the same queue
        # entry, pushed onto the kernel's heap at the same point.
        self.sim = sim
        self.name = name
        cb_pool = sim._cb_pool
        self.callbacks = cb_pool.pop() if cb_pool else []
        self._value = PENDING
        self._ok = None
        self.on_abandoned = None
        self.delay = delay
        self._deferred_value = value
        sim._sequence = seq = sim._sequence + 1
        heappush(sim._heap, (sim._now + delay, 1, seq, self))

    def _fire(self) -> None:
        # _run_callbacks, inlined (see there for the recycling rule).
        self._ok = True
        self._value = self._deferred_value
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)
        callbacks.clear()
        cb_pool = self.sim._cb_pool
        if len(cb_pool) < _CB_POOL_MAX:
            cb_pool.append(callbacks)

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        label = self.name or f"timeout({self.delay:g})"
        return f"<{label} {state} at t={self.sim.now:.3f}>"


class Condition(Event):
    """Base for events that fire when some set of child events fire.

    Once the condition has fired, no child that may still be pending
    keeps its ``_check``: that callback would only return at once, and
    such a child (the losing timeout of an ``AnyOf``, say) would hold
    the condition, which holds the child, in a reference cycle.  Dropping
    it changes no firing order.
    """

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulation", events: List[Event],
                 name: str = "") -> None:
        super().__init__(sim, name)
        self._events = list(events)
        for event in self._events:
            if event.sim is not sim:
                raise SimulationError("condition mixes simulations")
        if not self._events:
            self.succeed([])
            return
        for event in self._events:
            if self._value is not PENDING:
                break  # decided by an earlier child
            if event.processed or event.triggered:
                # Already decided; evaluate immediately via a callback shim.
                self._check(event)
            else:
                assert event.callbacks is not None
                event.callbacks.append(self._check)

    def _release(self) -> None:
        """Drop ``_check`` from every child that has not run its callbacks."""
        check = self._check
        for event in self._events:
            callbacks = event.callbacks
            if callbacks:
                try:
                    callbacks.remove(check)
                except ValueError:
                    pass  # never registered on this child

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> List[Any]:
        return [event.value for event in self._events if event.triggered]


class AllOf(Condition):
    """Fires when every child event has fired (or any child fails).

    A child counts as done once it is *triggered* and ok, which can be
    before its callbacks run; so the condition may fire from an earlier
    child's callback, and a plain pending counter would fire it later.
    Triggered and ok never revert, so ``_done`` — the length of the
    prefix of children known done — only moves forward, and each check
    costs amortised O(1) while answering exactly what a full re-scan
    would.  On success every child is triggered, so one that has not run
    its callbacks yet is queued and drops them when it fires; only a
    failure leaves children pending, and releases them.
    """

    __slots__ = ("_done",)

    def __init__(self, sim: "Simulation", events: List[Event],
                 name: str = "") -> None:
        self._done = 0
        super().__init__(sim, events, name)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            self._release()
            return
        events = self._events
        n = len(events)
        done = self._done
        while done < n:
            child = events[done]
            if child._value is PENDING or not child._ok:
                break
            done += 1
        self._done = done
        if done == n:
            self.succeed(self._collect())


class AnyOf(Condition):
    """Fires as soon as any child event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event.ok:
            self.succeed(event.value)
        else:
            self.fail(event.value)
        self._release()
