"""Operational metrics: per-platform summaries of invocation records.

What a fleet dashboard would show: request counts by start mode, latency
statistics per function, and the start-up share of total latency — read
from an :class:`~repro.platforms.ledger.InvocationLedger`: a platform's own,
which folds every invocation as it ends, or one folded from any list of
:class:`InvocationRecord` entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.bench.stats import LatencyStats, percentile
from repro.platforms.base import FailedInvocation, InvocationRecord
from repro.platforms.ledger import InvocationLedger, each_invocation


@dataclass(frozen=True)
class FunctionMetrics:
    """One function's operational view."""

    function: str
    invocations: int
    by_mode: Dict[str, int]
    latency: LatencyStats
    startup_share: float     # fraction of total latency spent starting up

    def as_line(self) -> str:
        """One-line dashboard row."""
        modes = ",".join(f"{mode}={count}"
                         for mode, count in sorted(self.by_mode.items()))
        return (f"{self.function:<26} n={self.invocations:<5d} "
                f"p50={self.latency.p50_ms:8.1f}ms "
                f"p99={self.latency.p99_ms:8.1f}ms "
                f"startup-share={self.startup_share:6.1%} [{modes}]")


@dataclass(frozen=True)
class PlatformMetrics:
    """The whole platform's operational view."""

    platform: str
    total_invocations: int
    by_mode: Dict[str, int]
    functions: List[FunctionMetrics]
    # Chaos-era fields: requests that exhausted their retry budget.  The
    # defaults keep pre-chaos callers (and their golden output) unchanged.
    failed_invocations: int = 0
    by_failure_reason: Dict[str, int] = field(default_factory=dict)
    # Serving-layer fields (repro.autoscale): requests the admission
    # controller rejected, and how long admitted requests queued.  Same
    # backward-compatible contract: the defaults are inert.
    shedded_invocations: int = 0
    by_shed_reason: Dict[str, int] = field(default_factory=dict)
    queue_wait_p50_ms: float = 0.0
    queue_wait_p99_ms: float = 0.0

    @property
    def availability(self) -> float:
        """Completed / (completed + failed); 1.0 with no traffic."""
        total = self.total_invocations + self.failed_invocations
        if total == 0:
            return 1.0
        return self.total_invocations / total

    @property
    def shed_rate(self) -> float:
        """Shedded / submitted (completed + failed + shedded)."""
        total = (self.total_invocations + self.failed_invocations
                 + self.shedded_invocations)
        if total == 0:
            return 0.0
        return self.shedded_invocations / total

    @property
    def goodput(self) -> float:
        """Fraction of submitted requests that completed successfully
        (sheds and failures are the badput)."""
        submitted = (self.total_invocations + self.failed_invocations
                     + self.shedded_invocations)
        if submitted == 0:
            return 1.0
        return self.total_invocations / submitted

    def function(self, name: str) -> FunctionMetrics:
        """Look up one function's metrics; KeyError if absent."""
        for entry in self.functions:
            if entry.function == name:
                return entry
        raise KeyError(f"no metrics for function {name!r}")

    def as_table(self) -> str:
        """Render the dashboard."""
        lines = [f"== metrics: {self.platform} "
                 f"({self.total_invocations} invocations) =="]
        if self.failed_invocations:
            reasons = ",".join(
                f"{reason}={count}" for reason, count
                in sorted(self.by_failure_reason.items()))
            lines.append(f"failed={self.failed_invocations} "
                         f"availability={self.availability:.4%} [{reasons}]")
        if self.shedded_invocations:
            reasons = ",".join(
                f"{reason}={count}" for reason, count
                in sorted(self.by_shed_reason.items()))
            lines.append(f"shed={self.shedded_invocations} "
                         f"shed-rate={self.shed_rate:.4%} "
                         f"queue-wait p50={self.queue_wait_p50_ms:.1f}ms "
                         f"p99={self.queue_wait_p99_ms:.1f}ms [{reasons}]")
        lines.extend(entry.as_line() for entry in self.functions)
        return "\n".join(lines)


def summarize_ledger(platform_name: str,
                     ledger: InvocationLedger) -> PlatformMetrics:
    """The operational summary of everything *ledger* folded: a
    platform's own summary is ``summarize_ledger(platform.name,
    platform.ledger)``."""
    functions = []
    for name in sorted(ledger.functions):
        function = ledger.functions[name]
        functions.append(FunctionMetrics(
            function=name,
            invocations=len(function.totals),
            by_mode=dict(function.modes),
            latency=LatencyStats.from_samples(function.totals),
            startup_share=(0.0 if function.total_sum == 0
                           else function.startup_sum / function.total_sum)))
    waits = ledger.queue_wait_ms
    return PlatformMetrics(
        platform=platform_name,
        total_invocations=ledger.completed,
        by_mode=dict(ledger.by_mode),
        functions=functions,
        failed_invocations=ledger.failed,
        by_failure_reason=dict(ledger.by_failure_reason),
        shedded_invocations=ledger.shed,
        by_shed_reason=dict(ledger.by_shed_reason),
        queue_wait_p50_ms=percentile(waits, 50) if waits else 0.0,
        queue_wait_p99_ms=percentile(waits, 99) if waits else 0.0)


def summarize(platform_name: str,
              records: Iterable[InvocationRecord],
              include_chains: bool = True,
              failed: Optional[Iterable[FailedInvocation]] = None,
              shedded: Optional[Iterable] = None
              ) -> PlatformMetrics:
    """Build the operational summary for a list of *records*.

    Each invocation counts once, chain hops included
    (:func:`~repro.platforms.ledger.each_invocation`).  *failed* are
    :class:`FailedInvocation` entries (chaos runs) and *shedded* shed
    ones (serving-layer runs); omitted, the summary is identical to the
    pre-chaos one.  The records are folded into a fresh
    :class:`InvocationLedger`, exactly as a platform folds each
    invocation when it ends.
    """
    ledger = InvocationLedger()
    for record in each_invocation(records, include_chains):
        ledger.fold(record)
    for entry in failed or ():
        ledger.fold_failed(entry)
    for entry in shedded or ():
        ledger.fold_shed(entry)
    return summarize_ledger(platform_name, ledger)
