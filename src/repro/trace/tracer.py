"""The tracer: issues and collects span trees on one simulation.

One :class:`Tracer` is attached to every :class:`~repro.sim.kernel.Simulation`
as ``sim.tracer``.  Span context propagates per *process*: each generator
process on the kernel carries its own span stack, so interleaved invocations
(bursts, chains, background retirement) cannot corrupt each other's trees.
Code running outside any process (direct generator stepping in unit tests)
shares one default stack.

Spans opened in a freshly spawned process start a new root — background work
(clone retirement, DB-trigger invocations) deliberately does *not* inherit
the span of the process that spawned it, because the parent span typically
closes before the background work runs.

Memory stays bounded as runs get longer: the tracer keeps the first
:data:`KEPT_ROOTS` roots of a simulation and drops every later one.  A
dropped tree is still built — the platform derives each record's breakdown
from it when the invocation completes — but nothing keeps it afterwards, and
spans link only downwards, so refcounting frees it as soon as its
invocation ends.  Every span carries its root's decision in ``kept``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.errors import TraceError
from repro.trace.span import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulation

#: Roots one simulation keeps, in creation order.  Every test and catalog
#: experiment that reads a tree back stays far below it; only the long
#: load replays and the largest load-sweep shard cross it.
KEPT_ROOTS = 4096


class Tracer:
    """Issues spans timed on one simulation's clock; keeps the first
    :data:`KEPT_ROOTS` roots."""

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self.roots: List[Span] = []
        self._default_stack: List[Span] = []
        self._auto_ids = 0

    # -- context -------------------------------------------------------------
    def _stack(self) -> List[Span]:
        process = self.sim._active_process
        if process is None:
            return self._default_stack
        stack = process.trace_stack
        if stack is None:
            stack = process.trace_stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span of the current process, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- span issuing ----------------------------------------------------------
    def span(self, name: str, phase: Optional[str] = None,
             kind: Optional[str] = None, trace_id: str = "",
             **attrs: Any) -> Span:
        """A new span to be opened with ``with``.

        The parent (the innermost open span of the current process) and the
        start time are captured on ``__enter__``, not here.  ``trace_id``
        only applies when the span turns out to be a root; children always
        inherit the root's id.
        """
        return Span(self, name, phase, kind, trace_id, attrs)

    def add_span(self, name: str, start_ms: float, end_ms: float,
                 phase: Optional[str] = None, kind: Optional[str] = None,
                 trace_id: str = "", parent: Optional[Span] = None,
                 **attrs: Any) -> Span:
        """Record a retrospective, already-closed span.

        Used for sub-phases inside an already-elapsed window (e.g. the JIT
        compile share of a compute op) where splitting the simulated timeout
        itself would perturb event ordering.  The span is attached under the
        currently open span (or as a root).  An explicit *parent* attaches
        the span under that (possibly already closed) span instead — the
        chain executor uses this to hang per-stage spans under a chain root
        built after the stages ran; the span joins that tree's kept
        decision.  *trace_id* applies only when the span lands as a root.
        """
        if end_ms < start_ms:
            raise TraceError(
                f"span {name!r} ends before it starts "
                f"({end_ms} < {start_ms})")
        span = Span(self, name, phase=phase, kind=kind, trace_id=trace_id,
                    attrs=attrs)
        span.start_ms = start_ms
        span.end_ms = end_ms
        if parent is not None:
            span.trace_id = parent.trace_id
            span.kept = parent.kept
            parent.children.append(span)
        else:
            self._attach(span)
        return span

    # -- attachment ------------------------------------------------------------
    def _attach(self, span: Span, stack: Optional[List[Span]] = None) -> None:
        # Span.__enter__ attaches a child inline and calls this for roots.
        if stack is None:
            stack = self._stack()
        if stack:
            parent = stack[-1]
            span.trace_id = parent.trace_id
            span.kept = parent.kept
            parent.children.append(span)
        else:
            if not span.trace_id:
                self._auto_ids += 1
                span.trace_id = f"trace-{self._auto_ids}"
            if len(self.roots) < KEPT_ROOTS:
                self.roots.append(span)
            else:
                span.kept = False

    # -- queries -------------------------------------------------------------
    def traces(self) -> Tuple[Span, ...]:
        """The kept root spans, in creation order."""
        return tuple(self.roots)

    def trace(self, trace_id: str) -> Span:
        """The kept root span with *trace_id*; KeyError if absent."""
        for root in self.roots:
            if root.trace_id == trace_id:
                return root
        raise KeyError(f"no trace {trace_id!r}")

    def clear(self) -> None:
        """Drop all recorded roots (open spans stay on their stacks)."""
        self.roots.clear()
