"""Trace invariants: span trees and invocation records must agree.

The platform derives each record's Fig 6/7 breakdown *from* its span tree
(:func:`phase_breakdown`), so the derived and recorded numbers are equal by
construction; :func:`verify_invocation` asserts that, plus structural
well-formedness, for any record:

* the root ``invoke`` span's duration equals the record's end-to-end
  latency **exactly** (both are the same ``completed - submitted`` wall
  delta on the DES clock);
* recomputing the breakdown from the span tree reproduces the record's
  ``startup_ms`` / ``exec_ms`` / ``other_ms`` / ``queue_wait_ms`` exactly;
* children nest inside their parents and siblings are monotone and
  non-overlapping (to a 1e-9 float epsilon);
* the top-level stage spans cover the root span (1e-6 tolerance — stage
  boundaries are zero-gap, only float summation noise remains).

This module is duck-typed over records (any object with the
``InvocationRecord`` fields) so it can sit below ``repro.platforms`` in the
import graph.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import TraceInvariantError
from repro.trace.span import Span

#: Sibling/nesting slack: pure float noise, no simulated stage is this short.
EPS_TREE = 1e-9
#: Coverage slack: summing stage durations is not associative with the
#: end-to-end wall delta.
EPS_COVERAGE = 1e-6


class PhaseBreakdown(NamedTuple):
    """One invocation's latency split, derived purely from its span tree."""

    startup_ms: float
    exec_ms: float
    other_ms: float
    queue_ms: float
    chain_ms: float

    @property
    def total_ms(self) -> float:
        """Start-up + exec + other (the height of one Fig 6/7 bar)."""
        return self.startup_ms + self.exec_ms + self.other_ms


def _acquire_other_ms(span: Span) -> float:
    """Time inside an acquire subtree explicitly tagged ``phase="other"``.

    A tagged span contributes its whole duration (no double count of its
    children); nested ``invoke`` spans are a different record's business and
    are not descended into.
    """
    total = 0.0
    for child in span.children:
        if child.kind == "invoke":
            continue
        if child.phase == "other":
            total += child.duration_ms
        else:
            total += _acquire_other_ms(child)
    return total


def _nested_invoke_ms(span: Span) -> float:
    """Duration of top-most nested ``invoke`` spans (synchronous chain hops)."""
    total = 0.0
    for child in span.children:
        if child.kind == "invoke":
            total += child.duration_ms
        else:
            total += _nested_invoke_ms(child)
    return total


def phase_breakdown(invoke_span: Span) -> PhaseBreakdown:
    """Derive the start-up / exec / other split from one ``invoke`` span.

    * ``frontend``, ``placement``, ``queue`` and ``admission`` stages are
      control-plane ("other") time (placement is an instantaneous decision
      today, so it contributes zero; ``queue`` and ``admission`` also
      count as queue time);
    * the ``acquire`` stage is start-up, minus any descendant explicitly
      tagged ``phase="other"`` (e.g. Fireworks' parameter publish);
    * the ``exec`` stage is in-guest execution, minus nested ``invoke``
      spans (a chain hop's time belongs to the child record);
    * the ``release`` stage is control-plane time (zero on every modeled
      platform — reclamation is off the critical path);
    * chaos-era stages — ``retry`` (backoff between attempts),
      ``failover`` (zero-width re-dispatch marker) and ``degraded``
      (injected host slowness) — are control-plane ("other") time: the
      platform, not the sandbox, made the request wait.
    """
    startup = exec_ms = other = queue = chain = 0.0
    for child in invoke_span.children:
        if child.name == "frontend":
            other += child.duration_ms
        elif child.name == "placement":
            other += child.duration_ms
        elif child.name == "queue":
            queue += child.duration_ms
            other += child.duration_ms
        elif child.name == "admission":
            # Serving layer: time spent in the host's bounded admission
            # queue waiting for a capacity slot (repro.autoscale) — queue
            # time the platform charged, like the core-pool "queue" stage.
            queue += child.duration_ms
            other += child.duration_ms
        elif child.name == "acquire":
            extra = _acquire_other_ms(child)
            startup += child.duration_ms - extra
            other += extra
        elif child.name == "exec":
            hops = _nested_invoke_ms(child)
            chain += hops
            exec_ms += child.duration_ms - hops
        elif child.name == "release":
            other += child.duration_ms
        elif child.name in ("retry", "failover", "degraded"):
            other += child.duration_ms
    return PhaseBreakdown(startup, exec_ms, other, queue, chain)


def check_well_formed(span: Span) -> None:
    """Assert *span*'s subtree is closed, nested, and sibling-monotone."""
    if not span.closed:
        raise TraceInvariantError(f"{span!r} is not closed")
    if span.end_ms < span.start_ms:  # pragma: no cover - Tracer forbids it
        raise TraceInvariantError(f"{span!r} ends before it starts")
    previous_end = None
    for child in span.children:
        if not child.closed:
            raise TraceInvariantError(f"{child!r} (under {span.name}) "
                                      "is not closed")
        if child.start_ms < span.start_ms - EPS_TREE or \
                child.end_ms > span.end_ms + EPS_TREE:
            raise TraceInvariantError(
                f"{child!r} escapes its parent {span!r}")
        if previous_end is not None and \
                child.start_ms < previous_end - EPS_TREE:
            raise TraceInvariantError(
                f"{child!r} overlaps its preceding sibling "
                f"(ends {previous_end}) under {span.name!r}")
        previous_end = child.end_ms
        check_well_formed(child)


def verify_invocation(record) -> PhaseBreakdown:
    """Assert *record* and its span tree tell the same story; recurses into
    chain children.  Returns the span-derived breakdown."""
    span = getattr(record, "span", None)
    if span is None:
        raise TraceInvariantError(
            f"record for {record.function!r} has no span attached")
    check_well_formed(span)
    if span.trace_id != record.trace_id:
        raise TraceInvariantError(
            f"{record.function!r}: span trace id {span.trace_id!r} != "
            f"record trace id {record.trace_id!r}")

    end_to_end = record.end_to_end_ms
    if span.duration_ms != end_to_end:
        raise TraceInvariantError(
            f"{record.function!r}: root span duration {span.duration_ms!r} "
            f"!= recorded end-to-end {end_to_end!r}")

    breakdown = phase_breakdown(span)
    recorded = (record.startup_ms, record.exec_ms, record.other_ms,
                record.queue_wait_ms)
    derived = (breakdown.startup_ms, breakdown.exec_ms, breakdown.other_ms,
               breakdown.queue_ms)
    if derived != recorded:
        raise TraceInvariantError(
            f"{record.function!r}: span-derived breakdown {derived!r} != "
            f"recorded {recorded!r}")

    covered = sum(child.duration_ms for child in span.children)
    if abs(covered - span.duration_ms) > EPS_COVERAGE:
        raise TraceInvariantError(
            f"{record.function!r}: stage spans cover {covered}ms of a "
            f"{span.duration_ms}ms invocation")

    for child in record.children:
        verify_invocation(child)
    return breakdown


def verify_records(records) -> int:
    """Verify every record in *records*; returns how many were checked."""
    count = 0
    for record in records:
        verify_invocation(record)
        count += 1
    return count
