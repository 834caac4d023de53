"""The platform ledger: every invocation folded once, as it ends.

Each invocation ends as one fold into the ledger plus its span tree, which
the tracer keeps only for a simulation's first ``repro.trace.KEPT_ROOTS``
roots; the ledger is what a reader of every invocation reads instead.  It
holds one-pass aggregates — mode counts, billed time, and the failed and
shed counts — and two columns in completion order: each completed
invocation's total and queue-wait milliseconds.  Memory grows by two
doubles per completion instead of a record per invocation.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platforms.base import InvocationRecord

#: AWS Lambda's current billing granularity: execution time is billed in
#: whole milliseconds, rounded up.
BILLING_GRANULARITY_MS = 1


@dataclass
class InvocationLedger:
    """Every completed, failed and shed invocation of one platform."""

    by_mode: Dict[str, int] = field(default_factory=dict)
    total_ms: array = field(default_factory=lambda: array("d"))
    queue_wait_ms: array = field(default_factory=lambda: array("d"))
    #: Billed time: each completion's exec_ms rounded up to
    #: :data:`BILLING_GRANULARITY_MS`.  The user pays for execution only;
    #: start-up is free to them (§1).
    billed_ms: int = 0
    #: Invocations that exhausted their retry budget under chaos.
    failed: int = 0
    #: Invocations the admission controller shed.
    shed: int = 0

    @property
    def completed(self) -> int:
        """Completed invocations, chain hops included."""
        return len(self.total_ms)

    def fold(self, record: "InvocationRecord") -> None:
        """Fold one completed invocation (a chain hop is one of its own)."""
        mode = record.mode
        self.by_mode[mode] = self.by_mode.get(mode, 0) + 1
        self.total_ms.append(record.total_ms)
        self.queue_wait_ms.append(record.queue_wait_ms)
        self.billed_ms += math.ceil(record.exec_ms / BILLING_GRANULARITY_MS) \
            * BILLING_GRANULARITY_MS
