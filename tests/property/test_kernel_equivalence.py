"""Differential property tests: the kernel's loop vs a plain reference.

The kernel fires every event from one inlined loop, ``_run_core``, and
``run()``, ``run(until=t)`` and ``run(until=event)`` all go through it.
The golden figure hashes ride on that loop firing entries in the exact
``(time, urgent_rank, sequence)`` order of its heap and stopping exactly
where each ``run`` asks.  These tests check it at two levels:

* kernel level — full simulations on :class:`Simulation` and on
  ``_ReferenceSimulation``, whose loop (defined below) pops, fires each
  payload through its own ``_fire()``, counts and stops in the plainest
  way, must fire the same callbacks at the same times in the same order,
  including through processes, interrupts and event cancellation
  (``Timeout`` never fires after its event fails), with 1 100-1 500
  pending entries, and with the outer driver stopping mid-program at a
  time, at an event or at a bare ``run()`` before it drains; and on
  these programs, which all go quiet, the bare ``run()``, bounded at 24
  simulated hours, fires what an unbounded loop fires and leaves the
  clock in the same place;
* condition level — random programs of timeouts, processes, plain events
  (succeeding or failing), already-triggered and already-processed
  children and nested conditions must fire every ``AllOf`` at the same
  queue position, with the same value or exception, as the re-scan
  reference ``_ScanAllOf`` defined below.
"""

from __future__ import annotations

import random
from heapq import heappop

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import AllOf, AnyOf, Condition, Event
from repro.sim.kernel import Simulation


class _ReferenceSimulation(Simulation):
    """The kernel with its hot loop replaced by the plain one: pop the
    head, count it, fire it through ``_fire()``, stop after *target*.

    Kept only here, as the reference ``Simulation._run_core`` must match.
    """

    def _run_core(self, deadline, target):
        heap = self._heap
        while heap and heap[0][0] <= deadline:
            time, _rank, _seq, item = heappop(heap)
            self._now = time
            self.events_processed += 1
            for hook in self._trace_hooks:
                hook(time, item)
            item._fire()
            if item is target:
                return


KERNELS = {"kernel": Simulation, "reference": _ReferenceSimulation}

# Delays with same-time ties (0.0), fractions, repeated whole values and
# a far-future jump.
DELAY_VALUES = (
    0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 7.75, 63.0, 511.0, 511.5, 512.0,
    512.5, 10_000.0,
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


@st.composite
def stops(draw):
    """Where the outer driver stops before it drains: ``run(until=now +
    delay)``, ``run(until=event)`` on the k-th event the program made
    (the driver process while it has made none), or a bare ``run()``."""
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("time"), DELAYS),
            st.tuples(st.just("event"), st.integers(min_value=0,
                                                    max_value=63)),
            st.tuples(st.just("drain"), st.none())),
        max_size=4))


def _arm(sim, log, tag, fast, delays):
    """A timer that logs *tag* and re-arms for each of *delays* in turn.

    *fast* picks ``schedule_timeout`` (a pooled ``_Timer``) over
    ``sim.timeout`` (a ``Timeout`` event).
    """
    def fire(_):
        log.append((tag, len(delays), sim.now))
        if len(delays) > 1:
            _arm(sim, log, tag, fast, delays[1:])
    if fast:
        sim.schedule_timeout(delays[0], fire)
    else:
        sim.timeout(delays[0]).callbacks.append(fire)


def _drain(sim, unbounded):
    """A bare ``run()``, or the loop it bounds run with no deadline."""
    if unbounded:
        return sim._run_core(float("inf"), None)
    return sim.run()


def _run_program(program, queue: str, halts=(), unbounded=False):
    """Execute *program* on the *queue* kernel; return the event log.

    The outer driver makes each of *halts* (see :func:`stops`) in turn,
    noting where it stopped, and then drains.  Each drain is a bare
    ``run()``, or, if *unbounded*, the loop with no deadline at all.
    """
    sim = KERNELS[queue](seed=7)
    log = []
    targets = []

    def driver():
        from repro.sim import Interrupt
        for index, step in enumerate(program):
            kind = step[0]
            if kind == "bulk":
                # Non-zero first delays, so no entry fires at once; each
                # timer re-arms once, so pushes land while the deep queue
                # drains.
                rng = random.Random(step[2])
                for k in range(step[1]):
                    delays = (rng.choice(DELAY_VALUES[1:]),
                              rng.choice(DELAY_VALUES))
                    _arm(sim, log, (index, k), k % 2, delays)
            elif kind == "timeout":
                timeout = sim.timeout(step[1], value=index)
                timeout.callbacks.append(
                    lambda ev, i=index: log.append(("cb", i, sim.now)))
                targets.append(timeout)
            elif kind == "fast":
                sim.schedule_timeout(
                    step[1], lambda v, i=index: log.append(
                        ("fast", i, sim.now)))
            elif kind == "process":
                def sleeper(i=index, delay=step[1], count=step[2]):
                    for k in range(count):
                        yield sim.timeout(delay)
                        log.append(("proc", i, k, sim.now))
                    return i
                targets.append(sim.process(sleeper()))
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
                targets.append(target)
            else:  # sleep
                yield sim.timeout(step[0 + 1])
                log.append(("drv", index, sim.now))
        # Make the driver a generator even without any sleeps.
        if False:
            yield  # pragma: no cover

    main = sim.process(driver())
    halted = []
    for kind, arg in halts:
        if kind == "time":
            value = sim.run(until=sim.now + arg)
        elif kind == "event":
            value = sim.run(until=targets[arg % len(targets)]
                            if targets else main)
        else:
            value = _drain(sim, unbounded)
        halted.append((value, len(log), sim.now, sim.events_processed,
                       sim.peek()))
    _drain(sim, unbounded)
    return log, halted, sim.now, sim.events_processed


@given(kernel_programs(), stops())
@settings(max_examples=150, deadline=None)
def test_full_simulation_equivalence(program, halts):
    """The kernel and the reference replay identical histories and stop
    at the same place."""
    assert (_run_program(program, "kernel", halts)
            == _run_program(program, "reference", halts))


@given(kernel_programs(), stops())
@settings(max_examples=150, deadline=None)
def test_bounded_run_fires_what_an_unbounded_loop_fires(program, halts):
    """On a program that goes quiet, a bare ``run()`` fires the events
    a loop with no deadline fires, in the same order, and leaves the
    clock at the same place."""
    for queue in KERNELS:
        assert (_run_program(program, queue, halts)
                == _run_program(program, queue, halts, unbounded=True))


@given(kernel_programs(),
       st.integers(min_value=1100, max_value=1500),
       st.integers(min_value=0, max_value=2 ** 32), kernel_programs(),
       stops())
@settings(max_examples=20, deadline=None)
def test_deep_queue_equivalence(before, count, seed, after, halts):
    """A burst of 1 100-1 500 pending entries, and the two kernels still
    agree."""
    program = before + [("bulk", count, seed)] + after
    assert (_run_program(program, "kernel", halts)
            == _run_program(program, "reference", halts))


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

    assert run("kernel") == run("reference")


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
