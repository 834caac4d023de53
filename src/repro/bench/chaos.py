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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.cluster import (KEEPALIVE_MS, POPULAR_INTERARRIVAL_MS,
                                 RARE_INTERARRIVAL_MS)
from repro.bench.experiment import Experiment, render_lines
from repro.bench.harness import (fresh_cluster_platform, install_all,
                                 invoke_once)
from repro.bench.serialization import register_result_type
from repro.bench.stats import LatencyStats
from repro.chaos import (KIND_BUS_PARTITION, KIND_HOST_CRASH, ChaosEvent,
                         ChaosPlan, HostFailureController)
from repro.config import CalibratedParameters, default_parameters
from repro.core.fireworks import FireworksPlatform
from repro.errors import InvocationFailedError
from repro.faults import FaultInjector
from repro.platforms.scheduler import (POLICY_ROUND_ROBIN,
                                       POLICY_SNAPSHOT_LOCALITY, home_index)
from repro.sim.rng import RngStreams
from repro.workloads.faasdom import faasdom_spec
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


def _chaos_replay(platform, trace) -> Tuple[List[float], int]:
    """Replay *trace*; failed invocations are counted, not raised."""
    latencies: List[float] = []
    failed = 0
    for event in trace:
        if platform.sim.now < event.at_ms:
            platform.sim.run(until=event.at_ms)
        try:
            record = invoke_once(platform, event.function)
            latencies.append(record.total_ms)
        except InvocationFailedError:
            failed += 1
    return latencies, failed


def _recovery_ms(platform, crash_at_ms: float) -> float:
    """Crash-to-first-completion among requests submitted after it."""
    post = [record.completed_ms for record in platform.records
            if record.submitted_ms >= crash_at_ms
            and record.completed_ms is not None]
    if not post:
        return -1.0
    return min(post) - crash_at_ms


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

    rng = RngStreams(seed)
    function_names = [f"fn-{i:02d}" for i in range(n_functions)]
    popularity = assign_popularity(
        function_names, rng,
        popular_interarrival_ms=POPULAR_INTERARRIVAL_MS,
        rare_interarrival_ms=RARE_INTERARRIVAL_MS)
    trace = poisson_trace(popularity, duration_ms, rng)

    base_spec = faasdom_spec("faas-netlatency", "nodejs")
    specs = [base_spec.__class__(
        name=name, language=base_spec.language, app=base_spec.app,
        make_program=base_spec.make_program, source=base_spec.source,
        description=base_spec.description,
        benchmark_suite=base_spec.benchmark_suite)
        for name in function_names]

    crash_host = default_crash_host(function_names, n_hosts)
    plan_events = [ChaosEvent(crash_at_ms, KIND_HOST_CRASH,
                              host_id=crash_host)]
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
        # A fresh injector per run: armed budgets must never leak across
        # repetitions (the engine's cache depends on runs being pure).
        faults = FaultInjector()
        platform = fresh_cluster_platform(
            FireworksPlatform, tuned, seed=seed, n_hosts=n_hosts,
            policy=policy, faults=faults)
        install_all(platform, specs)
        # One armed snapshot corruption exercises the §6 regeneration
        # path under chaos too (deterministic: same budget every row).
        faults.arm("restore", function_names[0], count=1)
        HostFailureController(platform, plan, failover=failover)

        latencies, failed = _chaos_replay(platform, trace)
        platform.sim.run()  # drain clone teardowns + chaos reclamation
        outcomes[label] = ChaosOutcome(
            label=label,
            policy=policy,
            failover=failover,
            n_hosts=n_hosts,
            crash_host=crash_host,
            crash_at_ms=crash_at_ms,
            requests=len(trace),
            completed=len(latencies),
            failed=failed,
            latency=LatencyStats.from_samples(latencies),
            recovery_ms=_recovery_ms(platform, crash_at_ms),
            retries=platform.retries,
            failovers=platform.failovers,
            regenerations=platform.regenerations)
    return outcomes


CHAOS = Experiment(
    "chaos", "host-failure chaos experiment (extension)",
    run=lambda params, seed: run_chaos_experiment(params, seed=seed),
    render=render_lines)
