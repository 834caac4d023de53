"""The discrete-event simulation kernel.

:class:`Simulation` owns the virtual clock and the pending-event queue.
Components throughout the library (sandboxes, runtimes, platforms) are
written as generator processes scheduled on a single ``Simulation`` so that
concurrent activity — warm-pool expiry, chained function invocations,
background JIT — interleaves deterministically.

Time is measured in **milliseconds** as floats; the clock starts at 0.0.

Hot-path design
---------------
The kernel was rewritten from a single ``heapq`` to a calendar queue
(Brown 1988) once million-invocation replays made the scheduler the
scaling ceiling (see ``docs/performance.md``).  Three tiers:

* a **deque** of same-time, normal-rank entries at the current pop
  frontier — FIFO, because sequence numbers are assigned monotonically;
* a **bucket ring** of 1 ms buckets covering the near-term window
  ``[int(now), int(now) + 512)`` — appends are O(1), and a bucket is
  sorted lazily when it becomes the active (lowest) one;
* an **overflow heap** for far-future entries and *all* urgent (rank-0)
  entries, so urgency never has to be special-cased in the ring.

The structure is written out on :class:`Simulation` itself, because
attribute-local loops are measurably faster than method calls in CPython
and this loop dominates every experiment's run time.  Pops take the
minimum of the tier heads by plain tuple comparison, so the pop order is
the exact ``(time, urgent_rank, sequence)`` total order of the old heap,
which `tests/property/test_kernel_equivalence.py` checks by differential
testing against a reference subclass that pushes every entry onto the
heap, with programs large enough to fill the bucket ring.

Two pooled, slot-only payload types ride the queue alongside full
:class:`~repro.sim.events.Event` objects:

* :class:`_Timer` — created by :meth:`Simulation.schedule_timeout`, the
  fast path for fire-and-forget callbacks (keep-alive expiry, samplers).
  No Event protocol, no name string, no callbacks list.
* :class:`_Wakeup` — created by :meth:`Simulation._schedule_wakeup` to
  resume a process (bootstrap, redelivery of an already-processed yield
  target, interrupts) without allocating a throwaway Event.

Both are recycled through free lists owned by the simulation, so steady
state replays allocate almost nothing per event.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Interrupt, Process
from repro.sim.rng import RngStreams
from repro.trace.tracer import Tracer

__all__ = ["Simulation", "Interrupt"]

# Queue entries are (time, urgent_rank, sequence, item): the sequence number
# makes ordering total and FIFO among same-time events.  ``item`` is an
# Event, a pooled _Timer, or a pooled _Wakeup.
_HeapEntry = Tuple[float, int, int, Any]

_INF = float("inf")

# Calendar geometry: 512 one-millisecond buckets (power of two so the slot
# index is a mask).
_NB = 512
_MASK = _NB - 1

# Below this many pending heap entries (and with no bucketed entries),
# normal-rank pushes go straight to the overflow heap: C-level heapq ops
# beat the Python-level bucket machinery until the pending set is large.
# Tier choice never affects pop order — the three-way head comparison
# enforces the (time, rank, seq) total order regardless of which tier
# holds an entry — so this is purely a performance routing decision.
_SMALL_HEAP = 1024

# Free-list caps: bound worst-case retained memory after a burst.
_TIMER_POOL_MAX = 4096
_WAKEUP_POOL_MAX = 4096
_CB_POOL_MAX = 1024


class _Timer:
    """Pooled fast-path timer: fires ``callback(value)``.

    Not an Event — it cannot be yielded on or waited for.  Only
    :meth:`Simulation.schedule_timeout` creates these.
    """

    __slots__ = ("sim", "_callback", "_value")

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self._callback: Optional[Callable[[Any], None]] = None
        self._value: Any = None

    def _fire(self) -> None:
        # Generic-path firing (step(), run(until=event)); the run() hot
        # loops inline this body instead.
        cb = self._callback
        value = self._value
        self._callback = None
        self._value = None
        pool = self.sim._timer_pool
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

    __slots__ = ("sim", "_callback", "_ok", "_value")

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
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
        pool = self.sim._wakeup_pool
        if len(pool) < _WAKEUP_POOL_MAX:
            pool.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_Wakeup ok={self._ok} value={self._value!r}>"


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
        # -- pending-event structure (see the module docstring) -----------
        self._heap: List[_HeapEntry] = []
        self._dq: deque = deque()
        self._dq_time = -1.0
        self._buckets: List[List[_HeapEntry]] = [[] for _ in range(_NB)]
        self._bcount = 0
        self._active = -1
        self._apos = 0
        self._scan_vb = 0
        # -- free lists ---------------------------------------------------
        self._timer_pool: List[_Timer] = []
        self._wakeup_pool: List[_Wakeup] = []
        self._cb_pool: List[list] = []
        #: Per-invocation span tracing (repro.trace); always on — records
        #: derive their latency breakdown from these spans.
        self.tracer = Tracer(self)

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
    def _push_normal(self, entry: _HeapEntry) -> None:
        """Route a normal-rank entry to the deque, a bucket, or the heap.

        Mirrored inline in :meth:`schedule_timeout`; keep the two in sync.
        """
        t = entry[0]
        dq = self._dq
        if dq:
            if t == self._dq_time:
                dq.append(entry)
                return
        elif t == self._now:
            self._dq_time = t
            dq.append(entry)
            return
        if not self._bcount and len(self._heap) < _SMALL_HEAP:
            heappush(self._heap, entry)
            return
        if t - self._now < _NB:  # inf-safe float precheck
            vb = int(t)
            if vb - int(self._now) < _NB:
                slot = vb & _MASK
                bucket = self._buckets[slot]
                if slot == self._active:
                    insort(bucket, entry, lo=self._apos)
                else:
                    bucket.append(entry)
                    if vb < self._scan_vb:
                        self._scan_vb = vb
                self._bcount += 1
                return
        heappush(self._heap, entry)

    def _schedule(self, event: Event, delay: float = 0.0,
                  priority_urgent: bool = False) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past ({delay})")
        self._sequence = seq = self._sequence + 1
        if priority_urgent:
            heappush(self._heap, (self._now + delay, 0, seq, event))
            return
        self._push_normal((self._now + delay, 1, seq, event))

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
        t = self._now + delay
        entry = (t, 1, seq, timer)
        # -- inline _push_normal (hot path) --
        dq = self._dq
        if dq:
            if t == self._dq_time:
                dq.append(entry)
                return
        elif t == self._now:
            self._dq_time = t
            dq.append(entry)
            return
        if not self._bcount and len(self._heap) < _SMALL_HEAP:
            heappush(self._heap, entry)
            return
        if t - self._now < _NB:
            vb = int(t)
            if vb - int(self._now) < _NB:
                slot = vb & _MASK
                bucket = self._buckets[slot]
                if slot == self._active:
                    insort(bucket, entry, lo=self._apos)
                else:
                    bucket.append(entry)
                    if vb < self._scan_vb:
                        self._scan_vb = vb
                self._bcount += 1
                return
        heappush(self._heap, entry)

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
        if urgent:
            heappush(self._heap, (self._now, 0, seq, wakeup))
        else:
            self._push_normal((self._now, 1, seq, wakeup))

    def add_trace_hook(self, hook: Callable[[float, Any], None]) -> None:
        """Register a hook called with (time, item) for each processed event.

        ``item`` is usually an :class:`Event` but may be a pooled kernel
        timer or wakeup for events scheduled through the fast paths.
        """
        self._trace_hooks.append(hook)

    # -- queue internals ---------------------------------------------------------
    def _bucket_head(self) -> _HeapEntry:
        """Head entry of the lowest non-empty bucket; activates it.

        Scans the ring from ``max(int(now), _scan_vb)`` — both are proven
        lower bounds on every bucket entry's virtual bucket number — and
        demotes a stale active bucket if an earlier one became non-empty.
        """
        buckets = self._buckets
        vbnow = int(self._now)
        if self._scan_vb > vbnow:
            vbnow = self._scan_vb
        active = self._active
        for k in range(_NB):
            slot = (vbnow + k) & _MASK
            if slot == active:
                self._scan_vb = vbnow + k
                return buckets[slot][self._apos]
            bucket = buckets[slot]
            if bucket:
                if active >= 0:
                    del buckets[active][: self._apos]
                if len(bucket) > 1:
                    bucket.sort()
                self._active = slot
                self._apos = 0
                self._scan_vb = vbnow + k
                return bucket[0]
        raise SimulationError("calendar queue invariant violated: "
                              "bucket count > 0 but scan found no bucket")

    def _bucket_pop(self) -> None:
        """Consume the active bucket's head (must follow _bucket_head)."""
        bucket = self._buckets[self._active]
        apos = self._apos + 1
        if apos == len(bucket):
            del bucket[:]
            self._active = -1
            self._apos = 0
        else:
            self._apos = apos
        self._bcount -= 1

    def _select(self) -> Tuple[Optional[_HeapEntry], int]:
        """Minimum entry across the three tiers, without popping.

        Returns ``(entry, src)`` with src 0=empty, 1=deque, 2=bucket,
        3=heap.
        """
        dq = self._dq
        best = dq[0] if dq else None
        src = 1 if best is not None else 0
        if self._bcount:
            bhead = self._bucket_head()
            if src == 0 or bhead < best:
                best, src = bhead, 2
        heap = self._heap
        if heap:
            hhead = heap[0]
            if src == 0 or hhead < best:
                best, src = hhead, 3
        return best, src

    def _pop_selected(self, src: int) -> None:
        if src == 1:
            self._dq.popleft()
        elif src == 2:
            self._bucket_pop()
        else:
            heappop(self._heap)

    # -- execution ---------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event.  Raises if none are scheduled."""
        best, src = self._select()
        if best is None:
            raise SimulationError("simulation has no scheduled events")
        time = best[0]
        if time < self._now:
            raise SimulationError("event heap time went backwards")
        self._pop_selected(src)
        self._now = time
        self.events_processed += 1
        # Tracing is off in the common case; don't pay for the loop setup
        # on every event of every experiment.
        if self._trace_hooks:
            for hook in self._trace_hooks:
                hook(time, best[3])
        best[3]._fire()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')`` if none."""
        best, _src = self._select()
        return best[0] if best is not None else _INF

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event fires, returning its value.
        """
        if until is None:
            self._run_core(_INF)
            return None
        if isinstance(until, Event):
            return self._run_until_event(until)
        deadline = float(until)
        if deadline < self._now:
            raise SimulationError(
                f"run(until={deadline}) is before now={self._now}")
        self._run_core(deadline)
        # Everything at or before the deadline has fired; all pending
        # entries are strictly later, so advancing the clock keeps every
        # queue invariant (the clock is a lower bound on pending times).
        self._now = deadline
        return None

    def _run_core(self, deadline: float) -> None:
        """Fire events in order while their time is <= *deadline*.

        This is the hot loop: the deque drain and timer firing are inlined
        (no step()/method-call overhead per event), which is worth ~2x on
        replay throughput in CPython.
        """
        dq = self._dq
        heap = self._heap
        hooks = self._trace_hooks  # list identity is stable
        tpool = self._timer_pool
        timer_cls = _Timer
        processed = 0
        try:
            while True:
                if dq and not self._bcount and not heap:
                    # -- fast subloop: only same-time deque entries pending.
                    # All deque entries share _dq_time, so one deadline
                    # check covers the whole drain (entries appended during
                    # the drain are admitted only at the same time).
                    if self._dq_time > deadline:
                        return
                    while dq and not self._bcount and not heap:
                        entry = dq.popleft()
                        self._now = entry[0]
                        processed += 1
                        item = entry[3]
                        if hooks:
                            for hook in hooks:
                                hook(entry[0], item)
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
                    continue
                # -- general three-way selection; _select/_pop_selected are
                # inlined because two extra method calls per event are
                # measurable at replay scale (see docs/performance.md).
                best = dq[0] if dq else None
                src = 1 if best is not None else 0
                if self._bcount:
                    bhead = self._bucket_head()
                    if src == 0 or bhead < best:
                        best, src = bhead, 2
                if heap:
                    hhead = heap[0]
                    if src == 0 or hhead < best:
                        best, src = hhead, 3
                if best is None:
                    return
                time = best[0]
                if time > deadline:
                    return
                if time < self._now:
                    raise SimulationError("event heap time went backwards")
                if src == 1:
                    dq.popleft()
                elif src == 3:
                    heappop(heap)
                else:
                    # inline _bucket_pop: consume the active bucket's head
                    bucket = self._buckets[self._active]
                    apos = self._apos + 1
                    if apos == len(bucket):
                        del bucket[:]
                        self._active = -1
                        self._apos = 0
                    else:
                        self._apos = apos
                    self._bcount -= 1
                self._now = time
                processed += 1
                item = best[3]
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
        finally:
            self.events_processed += processed

    def _run_until_event(self, until: Event) -> Any:
        if until.sim is not self:
            raise SimulationError("run(until=...) got a foreign event")
        finished: List[bool] = []

        def mark(_event: Event) -> None:
            finished.append(True)

        if until.processed:
            finished.append(True)
        else:
            # Pending, or triggered and already on the queue.
            assert until.callbacks is not None
            until.callbacks.append(mark)
        while not finished:
            if not (self._dq or self._bcount or self._heap):
                raise SimulationError(
                    f"deadlock: no events left but {until!r} never fired")
            self.step()
        if not until.ok and self.strict:
            raise until.value
        # Non-strict: a failed event does not raise out of run(); the
        # caller inspects ``until.ok`` and gets the exception as the value.
        return until.value
