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
root's decision.  Spans are context managers (opening/closing is delegated
to the :class:`~repro.trace.tracer.Tracer` that issued them).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional


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
    def __enter__(self) -> "Span":
        self._tracer._start(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.attrs.setdefault("error", type(exc).__name__)
        self._tracer._finish(self)
        return False

    def __repr__(self) -> str:
        window = (f"{self.start_ms:.3f}..{self.end_ms:.3f}"
                  if self.closed else "open")
        return f"<Span {self.name} [{window}] trace={self.trace_id}>"
