"""Unit tests for the simulation kernel."""

import gc
import threading

import pytest

from repro.errors import SimulationError, UndrainedSimulationError
from repro.sim import Interrupt, Simulation, SimulationScope
from repro.sim.kernel import DRAIN_HORIZON_MS
from tests.helpers import run


@pytest.fixture
def sim():
    return Simulation()


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_run_until_time(self, sim):
        sim.timeout(100)
        sim.run(until=50)
        assert sim.now == 50.0

    def test_run_until_past_raises(self, sim):
        sim.timeout(10)
        sim.run(until=20)
        with pytest.raises(SimulationError):
            sim.run(until=5)

    def test_peek_reports_next_event_time(self, sim):
        sim.timeout(30)
        sim.timeout(10)
        assert sim.peek() == 10.0

    def test_peek_empty_is_inf(self, sim):
        assert sim.peek() == float("inf")


class TestRun:
    def test_run_until_event_returns_value(self, sim):
        def proc():
            yield sim.timeout(5)
            return "done"

        assert run(sim, proc()) == "done"
        assert sim.now == 5.0

    def test_run_drains_everything(self, sim):
        times = []

        def proc(delay):
            yield sim.timeout(delay)
            times.append(sim.now)

        sim.process(proc(3))
        sim.process(proc(7))
        sim.run()
        assert times == [3.0, 7.0]

    def test_run_until_foreign_event_raises(self, sim):
        other = Simulation()
        event = other.event()
        with pytest.raises(SimulationError):
            sim.run(until=event)

    def test_deadlock_detected(self, sim):
        def proc():
            yield sim.event()  # never triggered

        process = sim.process(proc())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(until=process)

    def test_run_until_already_processed_event(self, sim):
        event = sim.event()
        event.succeed("early")
        sim.run()
        assert sim.run(until=event) == "early"


class TestRunUntilEventStops:
    """``run(until=event)`` fires events up to and including its target,
    and not one more."""

    def test_returns_right_after_the_target_fires(self, sim):
        fired = []
        target = sim.timeout(5, value="target")
        target.callbacks.append(lambda ev: fired.append("target"))
        sim.schedule_timeout(5, fired.append, "same time, later")
        sim.schedule_timeout(6, fired.append, "later")
        assert sim.run(until=target) == "target"
        assert fired == ["target"]
        assert sim.now == 5.0
        assert sim.events_processed == 1

    def test_a_same_time_entry_after_the_target_stays_pending(self, sim):
        fired = []
        target = sim.timeout(5)
        sim.timeout(5).callbacks.append(lambda ev: fired.append("after"))
        sim.run(until=target)
        assert fired == []
        assert sim.peek() == 5.0
        sim.run()
        assert fired == ["after"]
        assert sim.now == 5.0
        assert sim.events_processed == 2

    def test_an_urgent_interrupt_fires_before_same_time_entries(self, sim):
        order = []

        def victim():
            try:
                yield sim.timeout(100)
            except Interrupt:
                order.append("interrupted")

        process = sim.process(victim())
        target = sim.timeout(5)
        sim.schedule_timeout(5, order.append, "normal")
        target.callbacks.append(lambda ev: process.interrupt())
        sim.run(until=target)
        assert order == []
        sim.run()
        assert order == ["interrupted", "normal"]

    def test_queue_emptying_first_is_a_deadlock(self, sim):
        sim.timeout(3)
        sim.timeout(4)
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(until=sim.event())
        assert sim.now == 4.0
        assert sim.events_processed == 2

    def test_a_raising_callback_still_counts_its_event(self, sim):
        def boom(_value):
            raise ValueError("boom")

        target = sim.timeout(2)
        target.callbacks.append(lambda ev: boom(None))
        sim.timeout(1)
        with pytest.raises(ValueError, match="boom"):
            sim.run(until=target)
        assert sim.events_processed == 2
        sim.schedule_timeout(1, boom)
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        assert sim.events_processed == 3


class TestOrdering:
    def test_same_time_events_fifo(self, sim):
        order = []

        def proc(tag):
            yield sim.timeout(10)
            order.append(tag)

        for tag in ("a", "b", "c"):
            sim.process(proc(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_nested_process_spawning(self, sim):
        def child(n):
            yield sim.timeout(n)
            return n * 2

        def parent():
            results = []
            for n in (1, 2, 3):
                value = yield sim.process(child(n))
                results.append(value)
            return results

        assert run(sim, parent()) == [2, 4, 6]
        assert sim.now == 6.0

    def test_trace_hook_sees_events(self, sim):
        seen = []
        sim.add_trace_hook(lambda t, e: seen.append(t))
        sim.timeout(1)
        sim.timeout(2)
        sim.run()
        assert seen == [1.0, 2.0]


class TestDeterminism:
    def test_same_seed_same_jitter(self):
        a = Simulation(seed=7).rng.stream("x").random()
        b = Simulation(seed=7).rng.stream("x").random()
        assert a == b

    def test_different_seeds_differ(self):
        a = Simulation(seed=7).rng.stream("x").random()
        b = Simulation(seed=8).rng.stream("x").random()
        assert a != b


class TestRunUntilFailedEvent:
    """Regression: the strict=False branch of _run_until_event was dead —
    non-strict failures raised exactly like strict ones."""

    def test_strict_run_until_failed_event_raises(self, sim):
        failed = sim.event().fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            sim.run(until=failed)

    def test_non_strict_run_until_failed_process_returns_exception(self):
        sim = Simulation(strict=False)

        def failing():
            yield sim.timeout(1)
            raise ValueError("kaboom")

        process = sim.process(failing())
        value = sim.run(until=process)
        assert isinstance(value, ValueError)
        assert process.triggered and not process.ok

    def test_non_strict_run_until_failed_event_returns_exception(self):
        sim = Simulation(strict=False)
        failed = sim.event().fail(RuntimeError("quiet"))
        value = sim.run(until=failed)
        assert isinstance(value, RuntimeError)
        assert not failed.ok


class TestBoundedRun:
    """A bare ``run()`` runs the pending work out, up to 24 simulated
    hours, and names the earliest entry still queued after that."""

    def test_runs_pending_work_and_leaves_the_clock_at_the_last_event(
            self, sim):
        fired = []
        sim.schedule_timeout(3_600_000.0, fired.append, "teardown")
        sim.timeout(10.0)
        sim.run()
        assert fired == ["teardown"]
        assert sim.now == 3_600_000.0
        assert sim.peek() == float("inf")

    def test_an_empty_queue_leaves_the_clock(self, sim):
        sim.run(until=5.0)
        sim.run()
        assert sim.now == 5.0

    def test_the_error_names_a_sleeping_process(self, sim):
        def heartbeat():
            while True:
                yield sim.timeout(60_000.0)

        sim.process(heartbeat(), name="heartbeat")
        with pytest.raises(UndrainedSimulationError,
                           match="process 'heartbeat'") as raised:
            sim.run()
        assert raised.value.pending == "process 'heartbeat'"
        assert raised.value.experiment is None
        # Everything up to the horizon fired; the next beat is past it.
        assert sim.now == DRAIN_HORIZON_MS
        assert sim.peek() == DRAIN_HORIZON_MS + 60_000.0

    def test_the_error_names_a_timer_callback(self, sim):
        def sample(_value):
            sim.schedule_timeout(60_000.0, sample)

        sim.schedule_timeout(1.0, sample)
        with pytest.raises(UndrainedSimulationError) as raised:
            sim.run()
        assert raised.value.pending == (
            "timer TestBoundedRun.test_the_error_names_a_timer_callback"
            ".<locals>.sample")


class TestSimulationScope:
    """A scope holds, weakly, the simulations built on its own thread
    while it is open."""

    def test_collects_what_is_built_inside_weakly(self):
        Simulation()
        with SimulationScope() as scope:
            kept = Simulation()
            Simulation()
        Simulation()
        gc.collect()
        assert scope.live() == [kept]

    def test_each_thread_sees_only_its_own(self):
        interleave = threading.Barrier(2)
        seen = {}

        def build(name):
            with SimulationScope() as scope:
                mine = [Simulation()]
                interleave.wait(timeout=30)
                mine.append(Simulation())
                interleave.wait(timeout=30)
            seen[name] = (scope.live(), mine)

        threads = [threading.Thread(target=build, args=(name,))
                   for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert sorted(seen) == ["a", "b"]
        for live, mine in seen.values():
            assert live == mine
