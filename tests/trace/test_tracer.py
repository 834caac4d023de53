"""Unit tests for the tracer: span lifecycle, context, per-process stacks."""

import pytest

from repro.errors import TraceError
from repro.sim import Simulation
from repro.trace import Tracer
from tests.helpers import run


@pytest.fixture
def sim():
    return Simulation()


class TestSpanLifecycle:
    def test_span_times_on_the_des_clock(self, sim):
        def body():
            with sim.tracer.span("work") as span:
                yield sim.timeout(12.5)
            return span

        span = run(sim, body())
        assert span.start_ms == 0.0
        assert span.end_ms == 12.5
        assert span.duration_ms == 12.5
        assert span.closed

    def test_nesting_builds_a_tree(self, sim):
        def body():
            with sim.tracer.span("outer") as outer:
                yield sim.timeout(1.0)
                with sim.tracer.span("inner"):
                    yield sim.timeout(2.0)
                yield sim.timeout(3.0)
            return outer

        outer = run(sim, body())
        # Trees are reachable from the top only: the root is the one kept
        # trace, and walking it reaches the inner span.
        assert sim.tracer.traces() == (outer,)
        assert [span.name for span in outer.walk()] == ["outer", "inner"]
        inner = outer.children[0]
        assert inner.children == []
        assert inner.trace_id == outer.trace_id
        assert inner.start_ms == 1.0 and inner.end_ms == 3.0
        assert outer.duration_ms == 6.0

    def test_children_inherit_root_trace_id(self, sim):
        def body():
            with sim.tracer.span("root", trace_id="inv-42"):
                with sim.tracer.span("child", trace_id="ignored"):
                    yield sim.timeout(1.0)

        run(sim, body())
        root = sim.tracer.trace("inv-42")
        assert root.children[0].trace_id == "inv-42"

    def test_roots_get_auto_ids(self, sim):
        def body():
            with sim.tracer.span("a"):
                yield sim.timeout(1.0)
            with sim.tracer.span("b"):
                yield sim.timeout(1.0)

        run(sim, body())
        assert [r.trace_id for r in sim.tracer.traces()] == \
            ["trace-1", "trace-2"]

    def test_exception_closes_span_and_tags_error(self, sim):
        def body():
            with sim.tracer.span("doomed"):
                yield sim.timeout(1.0)
                raise ValueError("boom")

        with pytest.raises(ValueError):
            run(sim, body())
        (span,) = sim.tracer.traces()
        assert span.closed
        assert span.attrs["error"] == "ValueError"

    def test_closing_non_innermost_raises(self, sim):
        tracer = sim.tracer
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(TraceError):
            outer.__exit__(None, None, None)

    def test_current_tracks_innermost(self, sim):
        tracer = sim.tracer
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None


class TestProcessIsolation:
    def test_interleaved_processes_keep_separate_trees(self, sim):
        def worker(name, delay):
            with sim.tracer.span(name):
                yield sim.timeout(delay)
                with sim.tracer.span(f"{name}-inner"):
                    yield sim.timeout(delay)

        sim.process(worker("a", 3.0))
        sim.process(worker("b", 5.0))
        sim.run()
        by_name = {root.name: root for root in sim.tracer.traces()}
        assert set(by_name) == {"a", "b"}
        assert [c.name for c in by_name["a"].children] == ["a-inner"]
        assert [c.name for c in by_name["b"].children] == ["b-inner"]

    def test_spawned_process_starts_a_new_root(self, sim):
        def background():
            with sim.tracer.span("background"):
                yield sim.timeout(1.0)

        def foreground():
            with sim.tracer.span("foreground"):
                sim.process(background())
                yield sim.timeout(5.0)

        run(sim, foreground())
        sim.run()
        roots = {root.name for root in sim.tracer.traces()}
        assert roots == {"foreground", "background"}


class TestRetrospectiveSpans:
    def test_add_span_attaches_closed(self, sim):
        def body():
            with sim.tracer.span("op") as op:
                yield sim.timeout(10.0)
                sim.tracer.add_span("compile", 2.0, 6.0, function="f")
            return op

        op = run(sim, body())
        (compile_span,) = op.children
        assert compile_span.closed
        assert compile_span.duration_ms == 4.0
        assert compile_span.attrs == {"function": "f"}

    def test_add_span_rejects_negative_duration(self, sim):
        with pytest.raises(TraceError):
            sim.tracer.add_span("bad", 5.0, 4.0)


class TestQueries:
    def test_trace_lookup_and_clear(self, sim):
        def body():
            with sim.tracer.span("root", trace_id="t1"):
                yield sim.timeout(1.0)

        run(sim, body())
        assert sim.tracer.trace("t1").name == "root"
        with pytest.raises(KeyError):
            sim.tracer.trace("missing")
        sim.tracer.clear()
        assert sim.tracer.traces() == ()

    def test_standalone_tracer_default_stack(self, sim):
        tracer = Tracer(sim)
        with tracer.span("outside-any-process") as span:
            pass
        assert span.closed
        assert tracer.traces() == (span,)
