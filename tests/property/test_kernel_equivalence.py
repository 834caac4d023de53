"""Differential property tests: calendar queue vs the reference heap.

The calendar-queue rewrite's core promise is *exact* order preservation:
for any schedule — ties, urgent ranks, zero delays, far-future jumps,
interleaved cancels — the bucketed scheduler pops entries in precisely
the ``(time, urgent_rank, sequence)`` total order the single-heap kernel
used.  The golden figure hashes ride on that promise; these tests check
it exhaustively at two levels:

* queue level — random push/pop interleavings through
  :class:`~repro.sim.queues.CalendarEventQueue` and
  :class:`~repro.sim.queues.HeapEventQueue` must produce identical pop
  sequences;
* kernel level — full simulations built with ``Simulation(queue="calendar")``
  and ``Simulation(queue="heap")`` must fire the same callbacks at the
  same times in the same order, including through processes, interrupts
  and event cancellation (``Timeout`` never fires after its event fails);
* condition level — random programs of timeouts, processes, plain events
  (succeeding or failing), already-triggered and already-processed
  children and nested conditions must fire every ``AllOf`` at the same
  queue position, with the same value or exception, as the re-scan
  reference ``_ScanAllOf`` defined below.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import AllOf, AnyOf, Condition, Event
from repro.sim.kernel import Simulation
from repro.sim.queues import NB_BUCKETS, CalendarEventQueue, HeapEventQueue

# Delays that exercise every tier: same-time (0.0), sub-bucket fractions,
# exact bucket boundaries, the ring-window edge, and far-future overflow.
DELAYS = st.sampled_from([
    0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 7.75, 63.0, 511.0,
    float(NB_BUCKETS - 1), float(NB_BUCKETS), float(NB_BUCKETS) + 0.5,
    10_000.0,
])


# ---------------------------------------------------------------------------
# Queue level
# ---------------------------------------------------------------------------
@st.composite
def push_pop_scripts(draw):
    """A script of operations: ('push', delay, rank) or ('pop',)."""
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("push"), DELAYS,
                      st.sampled_from([0, 1, 1, 1])),  # urgent is rare
            st.tuples(st.just("pop"))),
        min_size=1, max_size=120))
    return ops


@given(push_pop_scripts())
@settings(max_examples=300, deadline=None)
def test_pop_order_identical(script):
    """Both queues pop the same entries in the same order, always."""
    calendar = CalendarEventQueue()
    heap = HeapEventQueue()
    sequence = 0
    now = 0.0
    for op in script:
        if op[0] == "push":
            _, delay, rank = op
            entry = (now + delay, rank, sequence, f"p{sequence}")
            sequence += 1
            calendar.push(entry)
            heap.push(entry)
        else:
            got = calendar.pop()
            expected = heap.pop()
            assert got == expected
            if got is not None:
                # The kernel's clock only moves forward on pops; model
                # that so pushed times are always >= the pop frontier
                # (the access pattern the calendar queue is proven for).
                now = got[0]
        assert len(calendar) == len(heap)
        assert bool(calendar) == bool(heap)
    # Drain: the remaining contents must agree too.
    while heap:
        assert calendar.pop() == heap.pop()
    assert calendar.pop() is None


@given(st.lists(st.tuples(DELAYS, st.sampled_from([0, 1])),
                min_size=1, max_size=200))
@settings(max_examples=200, deadline=None)
def test_bulk_push_then_drain(pushes):
    """Push everything, then drain: a pure priority-queue sort check."""
    calendar = CalendarEventQueue()
    heap = HeapEventQueue()
    for sequence, (delay, rank) in enumerate(pushes):
        entry = (delay, rank, sequence, sequence)
        calendar.push(entry)
        heap.push(entry)
    drained = []
    while calendar:
        drained.append(calendar.pop())
    expected = []
    while heap:
        expected.append(heap.pop())
    assert drained == expected
    assert drained == sorted(drained)


# ---------------------------------------------------------------------------
# Kernel level
# ---------------------------------------------------------------------------
@st.composite
def kernel_programs(draw):
    """A list of per-step actions a driver process performs."""
    return draw(st.lists(
        st.one_of(
            # (schedule a timeout with a recording callback, delay)
            st.tuples(st.just("timeout"), DELAYS),
            # (schedule via the fast path, delay)
            st.tuples(st.just("fast"), DELAYS),
            # (spawn a process that sleeps k times, delay per sleep)
            st.tuples(st.just("process"), DELAYS,
                      st.integers(min_value=1, max_value=3)),
            # (spawn a sleeping process, then interrupt it after a delay)
            st.tuples(st.just("interrupt"), DELAYS, DELAYS),
            # advance the driver itself
            st.tuples(st.just("sleep"), DELAYS)),
        min_size=1, max_size=25))


def _run_program(program, queue: str):
    """Execute *program* on a kernel using *queue*; return the event log."""
    sim = Simulation(seed=7, queue=queue)
    log = []

    def driver():
        from repro.sim import Interrupt
        for index, step in enumerate(program):
            kind = step[0]
            if kind == "timeout":
                timeout = sim.timeout(step[1], value=index)
                timeout.callbacks.append(
                    lambda ev, i=index: log.append(("cb", i, sim.now)))
            elif kind == "fast":
                sim.schedule_timeout(
                    step[1], lambda v, i=index: log.append(
                        ("fast", i, sim.now)))
            elif kind == "process":
                def sleeper(i=index, delay=step[1], count=step[2]):
                    for k in range(count):
                        yield sim.timeout(delay)
                        log.append(("proc", i, k, sim.now))
                sim.process(sleeper())
            elif kind == "interrupt":
                def victim(i=index, delay=step[1]):
                    try:
                        yield sim.timeout(delay + 1.0)
                        log.append(("slept", i, sim.now))
                    except Interrupt:
                        log.append(("interrupted", i, sim.now))
                target = sim.process(victim())
                def fire(v, t=target, i=index):
                    if t.is_alive:
                        t.interrupt(cause=i)
                sim.schedule_timeout(step[1], fire)
            else:  # sleep
                yield sim.timeout(step[0 + 1])
                log.append(("drv", index, sim.now))
        # Make the driver a generator even without any sleeps.
        if False:
            yield  # pragma: no cover

    sim.process(driver())
    sim.run()
    return log, sim.now, sim.events_processed


@given(kernel_programs())
@settings(max_examples=150, deadline=None)
def test_full_simulation_equivalence(program):
    """calendar-queue and heap kernels replay identical histories."""
    calendar_log, calendar_now, calendar_events = _run_program(
        program, "calendar")
    heap_log, heap_now, heap_events = _run_program(program, "heap")
    assert calendar_log == heap_log
    assert calendar_now == heap_now
    assert calendar_events == heap_events


@given(st.lists(DELAYS, min_size=1, max_size=30),
       st.integers(min_value=0, max_value=29))
@settings(max_examples=150, deadline=None)
def test_cancellation_equivalence(delays, cancel_index):
    """Failing one event mid-run never diverges the two kernels."""
    def run(queue):
        sim = Simulation(seed=7, strict=False, queue=queue)
        log = []
        events = [sim.event(f"e{i}") for i in range(len(delays))]
        for index, (event, delay) in enumerate(zip(events, delays)):
            event.callbacks.append(
                lambda ev, i=index: log.append((i, sim.now, ev.ok)))

            def complete(_value, ev=event, i=index):
                if not ev.triggered:
                    ev.succeed(value=i)
            sim.schedule_timeout(delay, complete)
        target = events[cancel_index % len(events)]

        def cancel(_value):
            if not target.triggered:
                target.fail(RuntimeError("cancelled"))
        sim.schedule_timeout(0.5, cancel)
        sim.run()
        return log, sim.now

    assert run("calendar") == run("heap")


# ---------------------------------------------------------------------------
# Condition events
# ---------------------------------------------------------------------------
class _ScanAllOf(Condition):
    """The re-scan ``AllOf``: every child completion re-checks every child.

    Kept only here, as the reference the forward cursor must match.
    """

    __slots__ = ()

    def _check(self, event):
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        if all(child.triggered and child.ok for child in self._events):
            self.succeed(self._collect())


class _Boom(Exception):
    pass


CONDITION_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 3.0])
OUTCOMES = st.sampled_from([True, True, True, False])  # failures are rarer


@st.composite
def condition_programs(draw):
    """Driver steps that build children and conditions over them.

    ``ready`` children are triggered but not yet processed when a later
    condition is built; a ``sleep`` lets queued children be processed
    first.  Conditions join the pool, so later ones nest them.
    """
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("timeout"), CONDITION_DELAYS),
            st.tuples(st.just("event"), CONDITION_DELAYS, OUTCOMES),
            st.tuples(st.just("process"), CONDITION_DELAYS, OUTCOMES),
            st.tuples(st.just("ready"), OUTCOMES),
            st.tuples(st.just("sleep"), CONDITION_DELAYS),
            st.tuples(st.just("cond"), st.sampled_from(["all", "any"]),
                      st.lists(st.integers(min_value=0, max_value=63),
                               max_size=6))),
        min_size=1, max_size=30))


def _settle(event, index, ok):
    if ok:
        event.succeed(index)
    else:
        event.fail(_Boom(index))


def _run_conditions(program, queue: str, all_of_cls):
    """Run *program* with *all_of_cls* as AllOf; return comparable logs."""
    sim = Simulation(seed=7, strict=False, queue=queue)
    history = []
    sim.add_trace_hook(lambda time, item: history.append(
        (time, item.name if isinstance(item, Event)
         else type(item).__name__)))
    outcomes = []

    def waiter(cond):
        try:
            value = yield cond
            outcomes.append((cond.name, sim.now, "ok", value))
        except _Boom as exc:
            outcomes.append((cond.name, sim.now, "err", exc.args))

    def driver():
        pool = []
        for index, step in enumerate(program):
            kind, name = step[0], f"n{index}"
            if kind == "timeout":
                pool.append(sim.timeout(step[1], value=index, name=name))
            elif kind == "event":
                event = sim.event(name)
                sim.schedule_timeout(
                    step[1], lambda _v, e=event, i=index, ok=step[2]:
                    _settle(e, i, ok))
                pool.append(event)
            elif kind == "process":
                def body(i=index, delay=step[1], ok=step[2]):
                    yield sim.timeout(delay)
                    if not ok:
                        raise _Boom(i)
                    return i
                pool.append(sim.process(body(), name=name))
            elif kind == "ready":
                event = sim.event(name)
                _settle(event, index, step[1])
                pool.append(event)
            elif kind == "sleep":
                yield sim.timeout(step[1], name=name)
            else:
                children = [pool[pick % len(pool)]
                            for pick in step[2]] if pool else []
                cls = all_of_cls if step[1] == "all" else AnyOf
                cond = cls(sim, children, name=name)
                sim.process(waiter(cond), name=f"w{index}")
                pool.append(cond)

    sim.process(driver(), name="driver")
    sim.run()
    return history, outcomes, sim.now, sim.events_processed


@given(condition_programs())
@settings(max_examples=300, deadline=None)
def test_all_of_cursor_matches_rescan(program):
    """The cursor AllOf fires at the same queue position, with the same
    value or exception, as the re-scan it replaced, on both queues."""
    for queue in ("calendar", "heap"):
        assert (_run_conditions(program, queue, AllOf)
                == _run_conditions(program, queue, _ScanAllOf))


def test_unknown_queue_rejected():
    import pytest

    from repro.errors import SimulationError
    with pytest.raises(SimulationError, match="queue"):
        Simulation(queue="wheel")
