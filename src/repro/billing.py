"""Pay-as-you-go billing and provider economics (§1).

The paper's economic motivation: *"the start-up time is not charged to
users"*, so every millisecond a sandbox spends booting is resource-time the
Cloud provider pays for but cannot bill — *"reducing start-up time is
important to Cloud providers for higher profitability"*.

This module turns invocation records into that accounting:

* **billed time** — what the user pays for: execution, rounded up to the
  billing granularity (AWS Lambda bills per 1 ms today, per 100 ms
  historically);
* **resource time** — what the provider's hardware actually spent:
  start-up + execution + control-plane overhead;
* **billable efficiency** — billed / resource: the provider's margin lever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.errors import PlatformError
from repro.platforms.base import InvocationRecord
from repro.platforms.ledger import each_invocation

#: AWS Lambda's current billing granularity.
DEFAULT_GRANULARITY_MS = 1.0
#: A typical per-GB-second rate, scaled to the paper's 512 MB sandboxes.
DEFAULT_RATE_PER_GB_S = 0.0000166667
DEFAULT_MEMORY_GB = 0.5


@dataclass(frozen=True)
class BillingLine:
    """Billing view of one invocation."""

    function: str
    billed_ms: float
    resource_ms: float
    charge_usd: float

    @property
    def unbilled_ms(self) -> float:
        return max(0.0, self.resource_ms - self.billed_ms)


@dataclass(frozen=True)
class BillingReport:
    """Aggregate provider economics over a set of invocations."""

    platform: str
    lines: List[BillingLine]
    granularity_ms: float

    @property
    def billed_ms(self) -> float:
        return sum(line.billed_ms for line in self.lines)

    @property
    def resource_ms(self) -> float:
        return sum(line.resource_ms for line in self.lines)

    @property
    def unbilled_ms(self) -> float:
        return sum(line.unbilled_ms for line in self.lines)

    @property
    def revenue_usd(self) -> float:
        return sum(line.charge_usd for line in self.lines)

    @property
    def billable_efficiency(self) -> float:
        """Fraction of provider resource-time that is billed (§1)."""
        if self.resource_ms == 0:
            return 1.0
        return min(1.0, self.billed_ms / self.resource_ms)

    def as_line(self) -> str:
        """One-line summary for the bench output."""
        return (f"{self.platform:<14} billed={self.billed_ms:10.1f}ms "
                f"resource={self.resource_ms:10.1f}ms "
                f"efficiency={self.billable_efficiency:6.1%} "
                f"revenue=${self.revenue_usd:.6f}")


def bill_invocation(record: InvocationRecord,
                    granularity_ms: float = DEFAULT_GRANULARITY_MS,
                    rate_per_gb_s: float = DEFAULT_RATE_PER_GB_S,
                    memory_gb: float = DEFAULT_MEMORY_GB) -> BillingLine:
    """One record -> one billing line.

    The user is billed for execution only (cold-start time is free to
    them); the provider's resource time includes everything the sandbox
    occupied hardware for.
    """
    if granularity_ms <= 0:
        raise PlatformError(
            f"billing granularity must be > 0, got {granularity_ms}")
    billed_ms = math.ceil(record.exec_ms / granularity_ms) * granularity_ms
    resource_ms = record.startup_ms + record.exec_ms + record.other_ms
    charge = billed_ms / 1000.0 * memory_gb * rate_per_gb_s
    return BillingLine(function=record.function, billed_ms=billed_ms,
                       resource_ms=resource_ms, charge_usd=charge)


def bill_records(platform_name: str,
                 records: Iterable[InvocationRecord],
                 granularity_ms: float = DEFAULT_GRANULARITY_MS,
                 rate_per_gb_s: float = DEFAULT_RATE_PER_GB_S,
                 memory_gb: float = DEFAULT_MEMORY_GB,
                 include_chains: bool = True) -> BillingReport:
    """Bill a set of invocations, one line each (chains flattened by
    default, every hop billed once:
    :func:`~repro.platforms.ledger.each_invocation`)."""
    lines = [bill_invocation(record, granularity_ms=granularity_ms,
                             rate_per_gb_s=rate_per_gb_s,
                             memory_gb=memory_gb)
             for record in each_invocation(records, include_chains)]
    return BillingReport(platform=platform_name, lines=lines,
                         granularity_ms=granularity_ms)


def run_billing_analysis(params=None,
                         benchmark: str = "faas-fact",
                         language: str = "nodejs",
                         invocations: int = 20,
                         cold_every: int = 5,
                         granularity_ms: float = DEFAULT_GRANULARITY_MS
                         ) -> "dict[str, BillingReport]":
    """Provider economics for a cold-sprinkled invocation stream.

    Every ``cold_every``-th request is a cold start (a fresh or expired
    function) — roughly the miss profile of a mixed fleet.  Fireworks has
    no cold starts at all, which is exactly why its billable efficiency
    approaches 1.
    """
    from repro.bench.harness import (fresh_platform, install_all,
                                     invoke_once)
    from repro.core.fireworks import FireworksPlatform
    from repro.platforms.base import MODE_AUTO, MODE_COLD
    from repro.platforms.openwhisk import OpenWhiskPlatform
    from repro.workloads.faasdom import faasdom_spec

    spec = faasdom_spec(benchmark, language)
    reports: "dict[str, BillingReport]" = {}
    for platform_cls in (OpenWhiskPlatform, FireworksPlatform):
        platform = fresh_platform(platform_cls, params)
        install_all(platform, [spec])
        for index in range(invocations):
            mode = (MODE_COLD if platform_cls is OpenWhiskPlatform
                    and index % cold_every == 0 else MODE_AUTO)
            invoke_once(platform, spec.name, mode=mode)
        reports[platform.name] = bill_records(
            platform.name, platform.records,
            granularity_ms=granularity_ms)
    return reports
