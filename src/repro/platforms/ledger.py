"""The platform ledger: every invocation folded once, as it ends.

A platform keeps an invocation's whole record only while the tracer keeps
its tree (``repro.trace.KEPT_ROOTS``); the ledger is what a reader of every
invocation reads instead.  It holds one-pass aggregates — per-function mode
counts, latency samples and start-up/total sums, global mode counts, billed
time, failure and shed reasons — and two columns in completion order: each
completed invocation's total and queue-wait milliseconds.  Memory grows by
three doubles per completion instead of a record per invocation.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platforms.base import FailedInvocation, InvocationRecord

#: AWS Lambda's current billing granularity: execution time is billed in
#: whole milliseconds, rounded up.
BILLING_GRANULARITY_MS = 1


@dataclass
class FunctionLedger:
    """One function's running aggregates."""

    modes: Dict[str, int] = field(default_factory=dict)
    totals: array = field(default_factory=lambda: array("d"))
    # Seeded with int 0, like the sum() builtin, so float accumulation in
    # fold order is bit-identical to summing the samples.
    startup_sum: float = 0
    total_sum: float = 0


@dataclass
class InvocationLedger:
    """Every completed, failed and shed invocation of one platform."""

    functions: Dict[str, FunctionLedger] = field(default_factory=dict)
    by_mode: Dict[str, int] = field(default_factory=dict)
    total_ms: array = field(default_factory=lambda: array("d"))
    queue_wait_ms: array = field(default_factory=lambda: array("d"))
    #: Billed time: each completion's exec_ms rounded up to
    #: :data:`BILLING_GRANULARITY_MS`.  The user pays for execution only;
    #: start-up is free to them (§1).
    billed_ms: int = 0
    failed: int = 0
    by_failure_reason: Dict[str, int] = field(default_factory=dict)
    shed: int = 0
    by_shed_reason: Dict[str, int] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        """Completed invocations, chain hops included."""
        return len(self.total_ms)

    def fold(self, record: "InvocationRecord") -> None:
        """Fold one completed invocation (a chain hop is one of its own)."""
        function = self.functions.get(record.function)
        if function is None:
            function = self.functions[record.function] = FunctionLedger()
        mode = record.mode
        function.modes[mode] = function.modes.get(mode, 0) + 1
        self.by_mode[mode] = self.by_mode.get(mode, 0) + 1
        total = record.total_ms
        function.totals.append(total)
        function.startup_sum = function.startup_sum + record.startup_ms
        function.total_sum = function.total_sum + total
        self.total_ms.append(total)
        self.queue_wait_ms.append(record.queue_wait_ms)
        self.billed_ms += math.ceil(record.exec_ms / BILLING_GRANULARITY_MS) \
            * BILLING_GRANULARITY_MS

    def fold_failed(self, failed: "FailedInvocation") -> None:
        """Fold one invocation that exhausted its retry budget.  Reasons
        are bucketed on their leading word: full messages would over-fit
        their text."""
        self.failed += 1
        bucket = failed.reason.split(" ", 1)[0] if failed.reason \
            else "unknown"
        self.by_failure_reason[bucket] = \
            self.by_failure_reason.get(bucket, 0) + 1

    def fold_shed(self, shedded) -> None:
        """Fold one invocation the admission controller shed."""
        self.shed += 1
        self.by_shed_reason[shedded.reason] = \
            self.by_shed_reason.get(shedded.reason, 0) + 1

