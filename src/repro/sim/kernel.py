"""The discrete-event simulation kernel.

:class:`Simulation` owns the virtual clock and the pending-event queue.
Components throughout the library (sandboxes, runtimes, platforms) are
written as generator processes scheduled on a single ``Simulation`` so that
concurrent activity — warm-pool expiry, chained function invocations,
background JIT — interleaves deterministically.

Time is measured in **milliseconds** as floats; the clock starts at 0.0.

Hot-path design
---------------
The pending-event queue is one ``heapq`` of ``(time, urgent_rank,
sequence, item)`` entries, and :meth:`Simulation._run_core` is the one
loop that fires them: ``run()``, ``run(until=t)`` and
``run(until=event)`` all go through it.  The sequence number makes the
order total, so pops follow the exact ``(time, urgent_rank, sequence)``
order: urgent (rank-0) entries such as interrupts first among same-time
entries, then FIFO.  ``tests/property/test_kernel_equivalence.py``
checks the loop, which inlines timer firing, against a plain reference
loop by differential testing.

A calendar queue (Brown 1988: a same-time deque, a ring of 512 x 1 ms
buckets and an overflow heap) used to sit here.  On CPython the C
``heapq`` beat the Python bucket ring at every pending-set size measured,
from 3 000 to 300 000 entries (1.40 against 1.73 us per event at 3 000,
4.46 against 5.18 us at 300 000), and the same-time deque cost a three-way
head comparison per event where one ``heappop`` does.  Deleting both,
and the one-event-per-call stepping of ``run(until=event)``, cut the
``sweep`` benchmark workload's wall time by 12% (``docs/performance.md``).

Two pooled, slot-only payload types ride the queue alongside full
:class:`~repro.sim.events.Event` objects:

* :class:`_Timer` — created by :meth:`Simulation.schedule_timeout`, the
  fast path for fire-and-forget callbacks (keep-alive expiry, samplers).
  No Event protocol, no name string, no callbacks list.
* :class:`_Wakeup` — created by :meth:`Simulation._schedule_wakeup` to
  resume a process (bootstrap, redelivery of an already-processed yield
  target, interrupts) without allocating a throwaway Event.

Both are recycled through free lists owned by the simulation, so steady
state replays allocate almost nothing per event.  A payload points at its
free list, not at the simulation, so a drained simulation holds no
reference cycle through its payloads and refcounting frees it.
"""

from __future__ import annotations

import threading
import weakref
from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import SimulationError, UndrainedSimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Interrupt, Process
from repro.sim.rng import RngStreams
from repro.trace.tracer import Tracer

__all__ = ["Simulation", "SimulationScope", "Interrupt"]

# Queue entries are (time, urgent_rank, sequence, item): the sequence number
# makes ordering total and FIFO among same-time events.  ``item`` is an
# Event, a pooled _Timer, or a pooled _Wakeup.
_HeapEntry = Tuple[float, int, int, Any]

_INF = float("inf")

# Free-list caps: bound worst-case retained memory after a burst.
_TIMER_POOL_MAX = 4096
_WAKEUP_POOL_MAX = 4096

#: How far past ``now`` a bare ``run()`` runs the pending work
#: (teardowns, retires, expiry timers) before it gives up: 24 simulated
#: hours.
DRAIN_HORIZON_MS = 24 * 3600 * 1000.0


class _Timer:
    """Pooled fast-path timer: fires ``callback(value)``.

    Not an Event — it cannot be yielded on or waited for.  Only
    :meth:`Simulation.schedule_timeout` creates these.
    """

    __slots__ = ("_pool", "_callback", "_value")

    def __init__(self, sim: "Simulation") -> None:
        self._pool = sim._timer_pool
        self._callback: Optional[Callable[[Any], None]] = None
        self._value: Any = None

    def _fire(self) -> None:
        # The firing protocol every payload shares; _run_core inlines
        # this body for timers instead of calling it.
        cb = self._callback
        value = self._value
        self._callback = None
        self._value = None
        pool = self._pool
        if len(pool) < _TIMER_POOL_MAX:
            pool.append(self)
        assert cb is not None
        cb(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_Timer cb={self._callback!r}>"


class _Wakeup:
    """Pooled process wakeup: delivers ``(ok, value)`` to one callback.

    Quacks just enough like a triggered Event for ``Process._resume``,
    which only reads ``_ok`` and ``_value`` from its trigger.
    """

    __slots__ = ("_pool", "_callback", "_ok", "_value")

    def __init__(self, sim: "Simulation") -> None:
        self._pool = sim._wakeup_pool
        self._callback: Optional[Callable[[Any], None]] = None
        self._ok = True
        self._value: Any = None

    def _fire(self) -> None:
        cb = self._callback
        self._callback = None
        assert cb is not None
        cb(self)
        # Recycle only on clean return: if the callback raised (strict
        # mode), the wakeup is simply dropped for the GC.
        self._value = None
        pool = self._pool
        if len(pool) < _WAKEUP_POOL_MAX:
            pool.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_Wakeup ok={self._ok} value={self._value!r}>"


#: This thread's open :class:`SimulationScope`, if any.
_SCOPE = threading.local()


class SimulationScope:
    """Every :class:`Simulation` built on this thread while the scope is
    open, held weakly (``with SimulationScope() as scope: ...``).

    Scopes are per thread, so engines running on worker threads each see
    only their own simulations.
    """

    def __init__(self) -> None:
        self._built: List[weakref.ref] = []

    def __enter__(self) -> "SimulationScope":
        _SCOPE.current = self
        return self

    def __exit__(self, *exc_info: Any) -> None:
        _SCOPE.current = None

    def live(self) -> List["Simulation"]:
        """The simulations built in this scope that are still alive, in
        construction order."""
        return [sim for sim in (ref() for ref in self._built)
                if sim is not None]


class Simulation:
    """A deterministic discrete-event simulation.

    Parameters
    ----------
    seed:
        Root seed for all named RNG streams (see :class:`RngStreams`).
    strict:
        When True (the default for tests), exceptions escaping a process
        propagate out of :meth:`run` instead of failing the process event.
        When False, a failed ``run(until=event)`` target does not raise
        either: the exception comes back as the return value and the
        caller inspects ``event.ok``.
    """

    def __init__(self, seed: int = 2022, strict: bool = True) -> None:
        self._now = 0.0
        self._sequence = 0
        self._active_process: Optional[Process] = None
        self.strict = strict
        self.rng = RngStreams(seed)
        self._trace_hooks: List[Callable[[float, Any], None]] = []
        #: Total events fired by this simulation (timers and wakeups
        #: included); bench tooling derives events/sec from this.
        self.events_processed = 0
        #: Sandboxes named so far without an explicit name; the next one
        #: is ``<mechanism>-<serial>``, so names repeat from run to run.
        self.sandbox_serial = 0
        #: The pending events (see the module docstring).
        self._heap: List[_HeapEntry] = []
        # -- free lists ---------------------------------------------------
        self._timer_pool: List[_Timer] = []
        self._wakeup_pool: List[_Wakeup] = []
        self._cb_pool: List[list] = []
        #: Per-invocation span tracing (repro.trace); always on — records
        #: derive their latency breakdown from these spans.
        self.tracer = Tracer(self)
        scope = getattr(_SCOPE, "current", None)
        if scope is not None:
            scope._built.append(weakref.ref(self))

    # -- clock ----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    # -- event construction ----------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create an untriggered event on this simulation."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None,
                name: str = "") -> Timeout:
        """Create an event that fires ``delay`` ms from now."""
        return Timeout(self, delay, value, name)

    def process(self, generator: Generator[Event, Any, Any],
                name: str = "") -> Process:
        """Start a new process from *generator*; returns its Process event."""
        return Process(self, generator, name=name)

    def all_of(self, events: List[Event]) -> AllOf:
        """Event firing once every event in *events* has fired."""
        return AllOf(self, events)

    def any_of(self, events: List[Event]) -> AnyOf:
        """Event firing once any event in *events* has fired."""
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0,
                  priority_urgent: bool = False) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past ({delay})")
        self._sequence = seq = self._sequence + 1
        heappush(self._heap, (self._now + delay, 0 if priority_urgent else 1,
                              seq, event))

    def schedule_timeout(self, delay: float,
                         callback: Callable[[Any], None],
                         value: Any = None) -> None:
        """Fast path: run ``callback(value)`` after *delay* ms.

        Unlike :meth:`timeout`, no :class:`Event` is allocated: nothing can
        wait on, cancel, or compose the timer, and the callback receives
        the *value* (not an event).  Use this for fire-and-forget work —
        expiry sweeps, samplers, retry kick-offs — where the Event protocol
        is pure overhead.  The timer object itself is pooled.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        pool = self._timer_pool
        if pool:
            timer = pool.pop()
        else:
            timer = _Timer(self)
        timer._callback = callback
        timer._value = value
        self._sequence = seq = self._sequence + 1
        heappush(self._heap, (self._now + delay, 1, seq, timer))

    def _schedule_wakeup(self, callback: Callable[[Any], None], ok: bool,
                         value: Any, urgent: bool = False) -> None:
        """Schedule a pooled process wakeup at the current time."""
        pool = self._wakeup_pool
        if pool:
            wakeup = pool.pop()
        else:
            wakeup = _Wakeup(self)
        wakeup._callback = callback
        wakeup._ok = ok
        wakeup._value = value
        self._sequence = seq = self._sequence + 1
        heappush(self._heap, (self._now, 0 if urgent else 1, seq, wakeup))

    def add_trace_hook(self, hook: Callable[[float, Any], None]) -> None:
        """Register a hook called with (time, item) for each processed event.

        ``item`` is usually an :class:`Event` but may be a pooled kernel
        timer or wakeup for events scheduled through the fast paths.
        """
        self._trace_hooks.append(hook)

    # -- execution ---------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')`` if none."""
        heap = self._heap
        return heap[0][0] if heap else _INF

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — drain: run the pending work out, up to
          :data:`DRAIN_HORIZON_MS` past now, leaving the clock at the last
          event fired.  Work still queued at the horizon (a process that
          never goes quiet) raises
          :class:`~repro.errors.UndrainedSimulationError`, naming the
          earliest entry: the process waiting on it, or a timer's
          callback;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event fires, returning its value.
        """
        if until is None:
            self._run_core(self._now + DRAIN_HORIZON_MS, None)
            heap = self._heap
            if heap:
                raise UndrainedSimulationError(_pending_name(heap[0][3]),
                                               DRAIN_HORIZON_MS)
            return None
        if isinstance(until, Event):
            return self._run_until_event(until)
        deadline = float(until)
        if deadline < self._now:
            raise SimulationError(
                f"run(until={deadline}) is before now={self._now}")
        self._run_core(deadline, None)
        # Everything at or before the deadline has fired; all pending
        # entries are strictly later, so advancing the clock keeps the
        # clock a lower bound on pending times.
        self._now = deadline
        return None

    def _run_core(self, deadline: float, target: Optional[Event]) -> None:
        """Fire events in order while their time is <= *deadline*, and
        return right after *target* fires (if given) or once the queue
        is empty.

        This is the hot loop: timer firing is inlined (no method call per
        timer), and the trace-hook loop runs only when a hook is
        installed.  Only an :class:`Event` can be *target*, so the stop
        test sits in the branch that fires one.
        """
        heap = self._heap
        hooks = self._trace_hooks  # list identity is stable
        tpool = self._timer_pool
        timer_cls = _Timer
        processed = 0
        try:
            while heap:
                entry = heap[0]
                time = entry[0]
                if time > deadline:
                    return
                if time < self._now:
                    raise SimulationError("event heap time went backwards")
                heappop(heap)
                self._now = time
                processed += 1
                item = entry[3]
                if hooks:
                    for hook in hooks:
                        hook(time, item)
                if item.__class__ is timer_cls:
                    cb = item._callback
                    item._callback = None
                    value = item._value
                    item._value = None
                    if len(tpool) < _TIMER_POOL_MAX:
                        tpool.append(item)
                    cb(value)
                else:
                    item._fire()
                    if item is target:
                        return
        finally:
            self.events_processed += processed

    def _run_until_event(self, until: Event) -> Any:
        if until.sim is not self:
            raise SimulationError("run(until=...) got a foreign event")
        if not until.processed:
            # Pending, or triggered and already on the queue.  The caller
            # waits on it like any other waiter, so an event it runs
            # until is never abandoned (``Event.on_abandoned``).
            assert until.callbacks is not None
            until.callbacks.append(_awaited)
            self._run_core(_INF, until)
            if not until.processed:
                raise SimulationError(
                    f"deadlock: no events left but {until!r} never fired")
        if not until.ok and self.strict:
            raise until.value
        # Non-strict: a failed event does not raise out of run(); the
        # caller inspects ``until.ok`` and gets the exception as the value.
        return until.value


def _pending_name(item: Any) -> str:
    """What the queue entry *item*, left after a bare ``run()``,
    resumes: a timer's callback, else the process waiting on the event,
    else the event itself.  (No wakeup is left: wakeups are queued at
    ``now``.)"""
    if item.__class__ is _Timer:
        callback = item._callback
        return f"timer {getattr(callback, '__qualname__', repr(callback))}"
    for callback in item.callbacks:
        process = getattr(callback, "__self__", None)
        if isinstance(process, Process):
            return f"process {process.name!r}"
    return repr(item)


def _awaited(_event: Event) -> None:
    """The callback ``run(until=event)`` adds to its target: it does
    nothing but keep the target's callbacks list non-empty."""
