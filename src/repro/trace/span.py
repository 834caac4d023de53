"""Spans: one timed stage of one invocation, on the DES clock.

A :class:`Span` covers a half-open interval of simulated time and carries a
name, free-form attributes (fc_id, start mode, JIT tier, ...), and two small
classification fields the breakdown derivation keys on:

* ``phase`` — which Fig 6/7 bar this span's time belongs to (``"other"``,
  ``"queue"``, ``"exec"``); untagged spans inherit their position (time
  inside the ``acquire`` stage is start-up by default).
* ``kind``  — structural role (``"invoke"``, ``"acquire"``, ``"retry"``,
  ...); nested ``invoke`` spans mark chain hops whose time is accounted on
  the child record, not the parent's exec bar.

Spans form a tree per trace, linked top-down only: a span holds its
``children`` but no pointer to its parent, so a tree has no reference cycle
and refcounting frees it the moment nothing holds its root.  ``kept`` says
whether the tracer keeps the span's tree (see
:data:`~repro.trace.tracer.KEPT_ROOTS`); every span of a tree carries its
root's decision.  Spans are context managers: opening one attaches it
under the innermost open span of the current process (or makes it a root
of the :class:`~repro.trace.tracer.Tracer` that issued it) and pushes it
on that process's span stack; closing it pops it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from repro.errors import TraceError


class Span:
    """One node of a trace tree: a named, timed, attributed interval.

    ``kept`` is false when the tracer dropped this span's tree: the tree
    still lives while its invocation runs, then goes with it.
    """

    __slots__ = ("name", "trace_id", "kept", "children", "start_ms",
                 "end_ms", "phase", "kind", "attrs", "_tracer")

    def __init__(self, tracer, name: str, phase: Optional[str] = None,
                 kind: Optional[str] = None, trace_id: str = "",
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self._tracer = tracer
        self.name = name
        self.phase = phase
        self.kind = kind
        self.trace_id = trace_id
        self.kept = True
        self.children: List["Span"] = []
        self.start_ms: Optional[float] = None
        self.end_ms: Optional[float] = None
        # The span takes ownership of *attrs* (no defensive copy): every
        # caller builds it fresh from ``**attrs``, and spans are opened on
        # every invocation stage, so the copy was measurable.
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}

    # -- timing --------------------------------------------------------------
    @property
    def duration_ms(self) -> float:
        """Wall duration on the DES clock; 0.0 while unstarted/open."""
        if self.start_ms is None or self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    @property
    def closed(self) -> bool:
        """Whether the span has both a start and an end timestamp."""
        return self.start_ms is not None and self.end_ms is not None

    # -- tree access ----------------------------------------------------------
    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First descendant (or self) with *name*, pre-order; None if absent."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> List["Span"]:
        """Every descendant (or self) with *name*, pre-order."""
        return [span for span in self.walk() if span.name == name]

    # -- context manager -----------------------------------------------------
    # Opening and closing run once per stage of every invocation, so each
    # is one body: resolve the current process's span stack, then attach
    # and push (or check and pop) in place.
    def __enter__(self) -> "Span":
        tracer = self._tracer
        sim = tracer.sim
        process = sim._active_process
        if process is None:
            stack = tracer._default_stack
        else:
            stack = process.trace_stack
            if stack is None:
                stack = process.trace_stack = []
        if stack:
            parent = stack[-1]
            self.trace_id = parent.trace_id
            self.kept = parent.kept
            parent.children.append(self)
        else:
            tracer._attach(self, stack)
        self.start_ms = sim._now
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.attrs.setdefault("error", type(exc).__name__)
        tracer = self._tracer
        sim = tracer.sim
        process = sim._active_process
        stack = (tracer._default_stack if process is None
                 else process.trace_stack)
        if not stack or stack[-1] is not self:
            raise TraceError(
                f"closing {self!r} which is not the innermost open span")
        stack.pop()
        self.end_ms = sim._now
        return False

    def __repr__(self) -> str:
        window = (f"{self.start_ms:.3f}..{self.end_ms:.3f}"
                  if self.closed else "open")
        return f"<Span {self.name} [{window}] trace={self.trace_id}>"
