"""Differential property tests: calendar queue vs the reference heap.

The calendar-queue rewrite's core promise is *exact* order preservation:
for any schedule — ties, urgent ranks, zero delays, far-future jumps,
interleaved cancels — the bucketed scheduler pops entries in precisely
the ``(time, urgent_rank, sequence)`` total order the single-heap kernel
used.  The golden figure hashes ride on that promise; these tests check
it at two levels:

* kernel level — full simulations on the calendar :class:`Simulation`
  and on ``_HeapSimulation``, the single-heap reference defined below,
  must fire the same callbacks at the same times in the same order,
  including through processes, interrupts and event cancellation
  (``Timeout`` never fires after its event fails), and with enough
  pending entries to leave the small-heap tier and fill the bucket ring;
* condition level — random programs of timeouts, processes, plain events
  (succeeding or failing), already-triggered and already-processed
  children and nested conditions must fire every ``AllOf`` at the same
  queue position, with the same value or exception, as the re-scan
  reference ``_ScanAllOf`` defined below.
"""

from __future__ import annotations

import random
from heapq import heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Condition, Event
from repro.sim.kernel import _NB as NB_BUCKETS
from repro.sim.kernel import Simulation, _Timer


class _HeapSimulation(Simulation):
    """The pre-rewrite single-heapq kernel: every entry goes through the
    overflow heap, so the deque and the bucket ring stay empty.

    Kept only here, as the reference the calendar queue must match.
    """

    def _push_normal(self, entry):
        heappush(self._heap, entry)

    def schedule_timeout(self, delay, callback, value=None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        timer = self._timer_pool.pop() if self._timer_pool else _Timer(self)
        timer._callback = callback
        timer._value = value
        self._sequence = seq = self._sequence + 1
        heappush(self._heap, (self._now + delay, 1, seq, timer))


KERNELS = {"calendar": Simulation, "heap": _HeapSimulation}

# Delays that exercise every tier: same-time (0.0), sub-bucket fractions,
# exact bucket boundaries, the ring-window edge, and far-future overflow.
DELAY_VALUES = (
    0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 7.75, 63.0, 511.0,
    float(NB_BUCKETS - 1), float(NB_BUCKETS) - 0.5, float(NB_BUCKETS),
    float(NB_BUCKETS) + 0.5, 10_000.0,
)
DELAYS = st.sampled_from(DELAY_VALUES)


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


def _arm(sim, log, tag, fast, delays):
    """A timer that logs *tag* and re-arms for each of *delays* in turn.

    *fast* picks ``schedule_timeout`` (the inlined push) over
    ``sim.timeout`` (routed by ``_push_normal``).
    """
    def fire(_):
        log.append((tag, len(delays), sim.now))
        if len(delays) > 1:
            _arm(sim, log, tag, fast, delays[1:])
    if fast:
        sim.schedule_timeout(delays[0], fire)
    else:
        sim.timeout(delays[0]).callbacks.append(fire)


def _run_program(program, queue: str, bucketed=None):
    """Execute *program* on a kernel using *queue*; return the event log.

    A ``bulk`` step appends the kernel's bucketed-entry count right after
    it schedules to *bucketed*, when given.
    """
    sim = KERNELS[queue](seed=7)
    log = []

    def driver():
        from repro.sim import Interrupt
        for index, step in enumerate(program):
            kind = step[0]
            if kind == "bulk":
                # Non-zero first delays, so no entry rides the same-time
                # deque; each timer re-arms once, so pushes also land in
                # the active bucket while the ring drains.
                rng = random.Random(step[2])
                for k in range(step[1]):
                    delays = (rng.choice(DELAY_VALUES[1:]),
                              rng.choice(DELAY_VALUES))
                    _arm(sim, log, (index, k), k % 2, delays)
                if bucketed is not None:
                    bucketed.append(sim._bcount)
            elif kind == "timeout":
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


@given(kernel_programs(),
       st.integers(min_value=1100, max_value=1500),
       st.integers(min_value=0, max_value=2 ** 32), kernel_programs())
@settings(max_examples=20, deadline=None)
def test_bucket_ring_equivalence(before, count, seed, after):
    """Past the small-heap tier: a burst of 1 100-1 500 pending entries
    fills the bucket ring, and the two kernels still agree."""
    program = before + [("bulk", count, seed)] + after
    bucketed, heap_bucketed = [], []
    calendar = _run_program(program, "calendar", bucketed)
    assert calendar == _run_program(program, "heap", heap_bucketed)
    assert max(bucketed) > 0, "no entry reached the bucket ring"
    assert max(heap_bucketed) == 0, "the reference used the bucket ring"


@given(st.lists(DELAYS, min_size=1, max_size=30),
       st.integers(min_value=0, max_value=29))
@settings(max_examples=150, deadline=None)
def test_cancellation_equivalence(delays, cancel_index):
    """Failing one event mid-run never diverges the two kernels."""
    def run(queue):
        sim = KERNELS[queue](seed=7, strict=False)
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
    sim = KERNELS[queue](seed=7, strict=False)
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
    for queue in KERNELS:
        assert (_run_conditions(program, queue, AllOf)
                == _run_conditions(program, queue, _ScanAllOf))
