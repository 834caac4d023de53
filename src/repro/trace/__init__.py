"""Deterministic per-invocation tracing on the DES clock.

``sim.tracer`` (a :class:`Tracer`) issues :class:`Span` context managers
that every stage of the invocation path opens — gateway, frontend, worker
acquisition (netns / MMDS / restore / parameter fetch / JIT), execution,
release.  The platform derives each invocation record's latency breakdown
*from* its span tree (:func:`phase_breakdown`), so the Fig 6/7 bars and the
trace can never disagree; :func:`verify_invocation` asserts exactly that.

The tracer keeps the first :data:`KEPT_ROOTS` roots of a simulation; a
later invocation's tree is freed when the invocation ends, and its record's
``span`` is ``None`` (docs/observability.md, "Retention").

Exporters: Chrome ``trace_event`` JSON (:func:`to_chrome_trace`,
:func:`write_trace_json`) and a plain-text tree (:func:`render_tree`) —
see ``python -m repro trace --help``.
"""

from repro.trace.export import (chrome_trace_events, render_tree,
                                to_chrome_trace, write_trace_json)
from repro.trace.span import Span
from repro.trace.tracer import KEPT_ROOTS, Tracer
from repro.trace.verify import (EPS_COVERAGE, EPS_TREE, PhaseBreakdown,
                                check_well_formed, phase_breakdown,
                                verify_invocation, verify_records)

__all__ = [
    "EPS_COVERAGE",
    "EPS_TREE",
    "KEPT_ROOTS",
    "PhaseBreakdown",
    "Span",
    "Tracer",
    "check_well_formed",
    "chrome_trace_events",
    "phase_breakdown",
    "render_tree",
    "to_chrome_trace",
    "verify_invocation",
    "verify_records",
    "write_trace_json",
]
