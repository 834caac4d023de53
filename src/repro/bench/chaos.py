"""Chaos experiment (extension): the cluster trace under host failure.

Replays the same Azure-like trace as :mod:`repro.bench.cluster` on a
Fireworks cluster while a :class:`~repro.chaos.HostFailureController`
crashes one host mid-trace, and reports per policy:

* **availability** — completed / submitted requests (failed invocations
  are first-class results, not crashes);
* **p99 under failure** — tail latency of the requests that *did*
  complete, retries and failovers included;
* **recovery time** — from the crash to the completion of the first
  request submitted after it.

Two policy rows run with and without platform failover (Fireworks
regenerating a snapshot whose every replica died with the crashed host),
which separates the two recovery mechanisms: *rerouting* (retry loop +
placement skipping dead hosts — always on) and *state repair* (failover
regeneration — gated).  ``snapshot-locality`` keeps each image on its
home host only, so the crash hurts it most without repair and least with
it; ``round-robin`` pre-replicates popular images everywhere but strands
rare functions whose only replica died.

Everything is seeded: the trace, the plan, and the retry jitter all
derive from *seed*, so two identically-seeded runs are byte-identical.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

from repro.bench.cluster import (KEEPALIVE_MS, POPULAR_INTERARRIVAL_MS,
                                 RARE_INTERARRIVAL_MS)
from repro.bench.experiment import Experiment, render_lines
from repro.bench.harness import (fleet, fresh_cluster_platform,
                                 install_all, replay)
from repro.bench.serialization import register_result_type
from repro.bench.stats import LatencyStats
from repro.chaos import (KIND_BUS_PARTITION, KIND_HOST_CRASH,
                         KIND_RESTORE_CORRUPTION, ChaosEvent, ChaosPlan,
                         HostFailureController)
from repro.config import CalibratedParameters, default_parameters
from repro.core.fireworks import FireworksPlatform
from repro.platforms.base import InvocationRecord
from repro.policy.placement import (POLICY_ROUND_ROBIN,
                                    POLICY_SNAPSHOT_LOCALITY, home_index)
from repro.sim.rng import RngStreams
from repro.workloads.generator import assign_popularity, poisson_trace

#: Mid-trace crash: late enough that warm state and locality built up,
#: early enough that recovery behaviour dominates the remaining half.
DEFAULT_CRASH_AT_MS = 300_000.0

#: The (policy, failover) rows every chaos run reports.
DEFAULT_ROWS: Tuple[Tuple[str, bool], ...] = (
    (POLICY_ROUND_ROBIN, False),
    (POLICY_ROUND_ROBIN, True),
    (POLICY_SNAPSHOT_LOCALITY, False),
    (POLICY_SNAPSHOT_LOCALITY, True),
)


@register_result_type
@dataclasses.dataclass(frozen=True)
class ChaosOutcome:
    """One (policy, failover) row's outcome under the fault plan."""

    label: str
    policy: str
    failover: bool
    n_hosts: int
    crash_host: int
    crash_at_ms: float
    requests: int
    completed: int
    failed: int
    latency: LatencyStats        # completed requests only
    recovery_ms: float           # crash -> first post-crash completion
    retries: int
    failovers: int
    regenerations: int

    @property
    def availability(self) -> float:
        """Completed / submitted over the whole trace."""
        if self.requests == 0:
            return 1.0
        return self.completed / self.requests

    def as_line(self) -> str:
        """One-line summary for the bench output."""
        recovery = (f"{self.recovery_ms:8.1f}ms" if self.recovery_ms >= 0
                    else "     n/a")
        return (f"{self.label:<26} avail={self.availability:8.4%} "
                f"failed={self.failed:3d}/{self.requests} "
                f"p99={self.latency.p99_ms:8.1f}ms "
                f"recovery={recovery} "
                f"retries={self.retries:3d} failovers={self.failovers:3d} "
                f"regen={self.regenerations:2d}")


def recovery_ms(records: Sequence[InvocationRecord],
                crash_at_ms: float) -> float:
    """From the crash to the first completion among requests submitted
    at or after it; -1 if none completed."""
    after = [record.completed_ms for record in records
             if record.submitted_ms >= crash_at_ms]
    return min(after) - crash_at_ms if after else -1.0


def default_crash_host(function_names: Sequence[str], n_hosts: int) -> int:
    """The host that is home to the most functions.

    Crashing the busiest home host maximises the state lost with the
    machine, which is what separates the policies: rare functions homed
    there lose their only snapshot replica.
    """
    counts = [0] * n_hosts
    for name in function_names:
        counts[home_index(name, n_hosts)] += 1
    return max(range(n_hosts), key=lambda host_id: counts[host_id])


def run_chaos_experiment(
        params: Optional[CalibratedParameters] = None,
        n_hosts: int = 4,
        n_functions: int = 12,
        duration_ms: float = 600_000.0,
        seed: int = 11,
        crash_at_ms: float = DEFAULT_CRASH_AT_MS,
        rows: Sequence[Tuple[str, bool]] = DEFAULT_ROWS
        ) -> Dict[str, ChaosOutcome]:
    """Availability, p99-under-failure and recovery time per policy.

    The same deterministic trace and the same fault plan (a crash of
    the busiest home host at *crash_at_ms*) are replayed for every row,
    so the rows differ only by placement policy and by whether platform
    failover (snapshot regeneration) is enabled.
    """
    resolved = params or default_parameters()
    tuned = dataclasses.replace(
        resolved, control_plane=dataclasses.replace(
            resolved.control_plane, warm_keepalive_ms=KEEPALIVE_MS))

    specs = fleet(n_functions)
    function_names = [spec.name for spec in specs]
    rng = RngStreams(seed)
    popularity = assign_popularity(
        function_names, rng,
        popular_interarrival_ms=POPULAR_INTERARRIVAL_MS,
        rare_interarrival_ms=RARE_INTERARRIVAL_MS)
    trace = poisson_trace(popularity, duration_ms, rng)

    crash_host = default_crash_host(function_names, n_hosts)
    plan_events = [
        ChaosEvent(crash_at_ms, KIND_HOST_CRASH, host_id=crash_host),
        # One snapshot corruption exercises the §6 regeneration path
        # under chaos too.  It fires once per row at seed 2022 (the
        # engine's seed); at seed 11 the trace never invokes fn-00.
        ChaosEvent(0.0, KIND_RESTORE_CORRUPTION, key=function_names[0],
                   count=1),
    ]
    # A transient bus blip straddling one pre-crash submission exercises
    # the retry/backoff path on every row: the first dispatch attempt
    # fails, the backoff outlives the 1 ms window, the retry succeeds.
    blip = next((event for event in trace
                 if 100_000.0 <= event.at_ms < crash_at_ms), None)
    if blip is not None:
        plan_events.append(ChaosEvent(max(0.0, blip.at_ms - 0.5),
                                      KIND_BUS_PARTITION, duration_ms=1.0))
    plan = ChaosPlan(plan_events)

    outcomes: Dict[str, ChaosOutcome] = {}
    for policy, failover in rows:
        label = f"{policy}+failover" if failover else policy
        platform = fresh_cluster_platform(
            FireworksPlatform, tuned, seed=seed, n_hosts=n_hosts,
            policy=policy)
        install_all(platform, specs)
        # Each row's controller arms its own budgets from the plan's
        # immutable events, so no fault budget leaks into the next row.
        HostFailureController(platform, plan, failover=failover)

        records = replay(platform, trace)
        platform.sim.run()  # drain clone teardowns + chaos reclamation
        outcomes[label] = ChaosOutcome(
            label=label,
            policy=policy,
            failover=failover,
            n_hosts=n_hosts,
            crash_host=crash_host,
            crash_at_ms=crash_at_ms,
            requests=len(trace),
            completed=len(records),
            failed=platform.ledger.failed,
            latency=LatencyStats.from_samples(
                [record.total_ms for record in records]),
            recovery_ms=recovery_ms(records, crash_at_ms),
            retries=platform.retries,
            failovers=platform.failovers,
            regenerations=platform.regenerations)
    return outcomes


CHAOS = Experiment(
    "chaos", "host-failure chaos experiment (extension)",
    run=lambda params, seed: run_chaos_experiment(params, seed=seed),
    render=render_lines)
