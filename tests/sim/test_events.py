"""Unit tests for the event primitives."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, Simulation
from tests.helpers import run


@pytest.fixture
def sim():
    return Simulation()


class TestEvent:
    def test_fresh_event_is_untriggered(self, sim):
        event = sim.event("e")
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().value

    def test_ok_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().ok

    def test_succeed_delivers_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_double_trigger_raises(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")

    def test_fail_raises_in_waiter(self, sim):
        event = sim.event()

        def waiter():
            with pytest.raises(ValueError, match="boom"):
                yield event
            return "survived"

        process = sim.process(waiter())
        event.fail(ValueError("boom"))
        sim.run()
        assert process.value == "survived"

    def test_callbacks_run_once(self, sim):
        event = sim.event()
        calls = []
        event.callbacks.append(lambda e: calls.append(e))
        event.succeed()
        sim.run()
        assert calls == [event]
        assert event.processed


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        sim.timeout(25.0)
        sim.run()
        assert sim.now == 25.0

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_timeout_value_delivered(self, sim):
        def proc():
            got = yield sim.timeout(5, value="hello")
            return got

        assert run(sim, proc()) == "hello"

    def test_zero_delay_fires_at_now(self, sim):
        def proc():
            yield sim.timeout(0)
            return sim.now

        assert run(sim, proc()) == 0.0


class TestAllOf:
    def test_waits_for_all(self, sim):
        def proc():
            t1 = sim.timeout(10, value="a")
            t2 = sim.timeout(20, value="b")
            values = yield sim.all_of([t1, t2])
            return sim.now, values

        now, values = run(sim, proc())
        assert now == 20.0
        assert values == ["a", "b"]

    def test_empty_all_of_fires_immediately(self, sim):
        def proc():
            values = yield sim.all_of([])
            return values

        assert run(sim, proc()) == []

    def test_all_of_propagates_failure(self, sim):
        def failer():
            yield sim.timeout(1)
            raise RuntimeError("child failed")

        def proc():
            child = sim.process(failer())
            with pytest.raises(RuntimeError, match="child failed"):
                yield sim.all_of([child, sim.timeout(100)])
            return True

        sim.strict = False
        assert run(sim, proc()) is True

    def test_fires_from_first_callback_once_all_triggered(self, sim):
        # Both children are triggered before either is processed, so the
        # condition is decided inside the first child's callback, and is
        # queued ahead of "later", which "other" schedules before the
        # second child's callback runs.  A pending counter would wait for
        # that callback and land after "later".
        fired = []
        sim.add_trace_hook(lambda _t, item: fired.append(item.name))
        first, other, second = (sim.event(n)
                                for n in ("first", "other", "second"))
        cond = AllOf(sim, [first, second], name="all")
        other.callbacks.append(lambda _e: sim.event("later").succeed())
        for event in (first, other, second):
            event.succeed(event.name)
        sim.run()
        assert cond.value == ["first", "second"]
        assert fired == ["first", "other", "second", "all", "later"]


class _CountingList(list):
    """A child list that counts every element read, by index or by
    iteration."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item


class TestAllOfLinearWork:
    """Child inspections stay linear in the number of children.

    The cursor reads each child once when it passes it and once more
    where it stops, so the checks cost at most N + (number of calls) =
    2N reads; ``_collect`` then reads each child once more.  A re-scan
    of every child per completion would be quadratic.
    """

    N = 400

    def _inspections(self, order):
        sim = Simulation()
        children = [sim.event(f"c{i}") for i in range(self.N)]
        cond = sim.all_of(children)
        cond._events = counted = _CountingList(cond._events)
        for step, index in enumerate(order):
            sim.schedule_timeout(
                float(step), lambda _v, i=index: children[i].succeed(i))
        sim.run()
        assert cond.value == list(range(self.N))
        return counted.reads

    @pytest.mark.parametrize("order", ["reverse", "forward", "random"])
    def test_inspections_linear(self, order):
        indices = list(range(self.N))
        if order == "reverse":
            indices.reverse()
        elif order == "random":
            random.Random(7).shuffle(indices)
        assert self._inspections(indices) <= 3 * self.N + 2


class TestAnyOf:
    def test_fires_on_first(self, sim):
        def proc():
            t1 = sim.timeout(10, value="fast")
            t2 = sim.timeout(50, value="slow")
            value = yield sim.any_of([t1, t2])
            return sim.now, value

        now, value = run(sim, proc())
        assert now == 10.0
        assert value == "fast"

    def test_already_triggered_child(self, sim):
        def proc():
            event = sim.event()
            event.succeed("instant")
            value = yield sim.any_of([event, sim.timeout(99)])
            return value

        assert run(sim, proc()) == "instant"
