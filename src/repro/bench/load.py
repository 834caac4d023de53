"""Open-loop load experiment (extension): the serving layer under
sustained Azure-like traffic.

Replays a Poisson-modulated trace (sinusoidally swinging arrival rates —
the diurnal pattern compressed to a minutes-long period) *open loop*
across a 4-host cluster: every submission fires at its trace time as its
own process, whether or not earlier requests finished, so queueing is
real — a slow backend builds depth, sheds load, and pays tail latency.

Per (backend × scaling mode) it reports p50/p99 end-to-end latency,
queue wait, shed rate, goodput, cold-start share, and the warm-pool
memory footprint, for three warm-pool scaling modes under identical
admission bounds:

* ``none`` — admission control only, no pre-provisioning;
* ``reactive`` — scale up after queue pressure is observed;
* ``predictive`` — pre-provision from arrival-gap histograms *before*
  the predicted arrival.

Everything derives from *seed*: the popularity split, the modulated
trace, and the simulation — two identically-seeded runs are
byte-identical (the seeded E2E determinism test locks this).
"""

from __future__ import annotations

import dataclasses
from array import array
from typing import Optional, Sequence, Tuple

from repro.autoscale import WarmPoolAutoscaler
from repro.bench.experiment import Experiment, render_lines
from repro.bench.harness import fleet, fresh_cluster_platform, install_all
from repro.bench.serialization import register_result_type
from repro.bench.stats import LatencyStats, percentile
from repro.config import CalibratedParameters, default_parameters
from repro.core.fireworks import FireworksPlatform
from repro.errors import InvocationFailedError, InvocationSheddedError
from repro.platforms.base import MODE_WARM
from repro.platforms.catalyzer import CatalyzerPlatform
from repro.platforms.firecracker import FirecrackerPlatform
from repro.platforms.gvisor_platform import GVisorPlatform
from repro.platforms.openwhisk import OpenWhiskPlatform
from repro.policy import default_registry
from repro.policy.placement import POLICY_HASH
from repro.sim.rng import RngStreams
from repro.workloads.generator import (assign_popularity,
                                       modulated_poisson_trace)

#: The five backends of the paper's evaluation (incl. the measured
#: Catalyzer baseline extension).
LOAD_PLATFORMS = {
    "fireworks": FireworksPlatform,
    "openwhisk": OpenWhiskPlatform,
    "firecracker": FirecrackerPlatform,
    "gvisor": GVisorPlatform,
    "catalyzer": CatalyzerPlatform,
}

#: Warm-pool scaling modes, all under the same admission bounds — the
#: registered built-in autoscale policies, in registry order.
LOAD_MODES = default_registry().names("autoscale")

#: Defaults sized for the saturation knee of a 4-host cluster: the four
#: popular functions swing around ~100 req/s each (~10⁵ invocations over
#: the default window), so modulation crests push the cluster past its
#: 12 concurrent slots for a fast backend — queueing and shedding become
#: visible — while troughs let it drain.  Slow backends saturate outright
#: and live or die by their warm pools.
DEFAULT_N_HOSTS = 4
DEFAULT_N_FUNCTIONS = 22
DEFAULT_DURATION_MS = 240_000.0
DEFAULT_CAPACITY_PER_HOST = 3
DEFAULT_POPULAR_INTERARRIVAL_MS = 10.0
DEFAULT_RARE_INTERARRIVAL_MS = 60_000.0
DEFAULT_MODULATION_PERIOD_MS = 60_000.0
DEFAULT_MODULATION_DEPTH = 0.6
DEFAULT_KEEPALIVE_MS = 30_000.0
DEFAULT_SAMPLE_INTERVAL_MS = 2000.0
DEFAULT_SEED = 2022


@register_result_type
@dataclasses.dataclass(frozen=True)
class LoadOutcome:
    """One (backend, scaling mode) row of the load experiment."""

    platform: str
    mode: str                     # none | reactive | predictive
    n_hosts: int
    requests: int                 # submitted
    completed: int
    shed: int
    failed: int
    latency: LatencyStats         # end-to-end, completed requests only
    queue_wait_p50_ms: float
    queue_wait_p99_ms: float
    warm_starts: int              # completed with a pooled/warm worker
    provisioned: int              # autoscaler provisioning actions
    peak_warm_mb: float           # max Σ pool PSS over the run
    mean_warm_mb: float

    @property
    def shed_rate(self) -> float:
        """Shed / submitted."""
        return self.shed / self.requests if self.requests else 0.0

    @property
    def goodput(self) -> float:
        """Completed / submitted."""
        return self.completed / self.requests if self.requests else 1.0

    @property
    def cold_start_share(self) -> float:
        """Fraction of completed requests that did *not* hit a warm
        worker (for Fireworks: paid the restore on the critical path)."""
        if self.completed == 0:
            return 0.0
        return 1.0 - self.warm_starts / self.completed

    def as_line(self) -> str:
        """One-line summary for the bench output."""
        return (f"{self.platform:<12} {self.mode:<10} "
                f"p50={self.latency.p50_ms:8.1f}ms "
                f"p99={self.latency.p99_ms:9.1f}ms "
                f"qwait-p99={self.queue_wait_p99_ms:8.1f}ms "
                f"shed={self.shed_rate:7.3%} "
                f"cold={self.cold_start_share:7.2%} "
                f"goodput={self.goodput:7.3%} "
                f"warm-mem peak={self.peak_warm_mb:7.1f}MiB "
                f"mean={self.mean_warm_mb:7.1f}MiB")


def _empty_latency() -> LatencyStats:
    return LatencyStats(count=0, mean_ms=0.0, p50_ms=0.0, p95_ms=0.0,
                        p99_ms=0.0, max_ms=0.0)


def _submit(platform, function: str):
    """One open-loop submission: sheds and failures are accounted on the
    platform (its ``ledger``), never crash the replay."""
    try:
        yield from platform.invoke(function)
    except InvocationSheddedError:
        pass
    except InvocationFailedError:
        pass


def _start_memory_sampler(platform, until_ms: float, interval_ms: float,
                          samples: "array") -> None:
    """Periodic Σ pool-PSS sampler (runs for all modes, so the memory
    comparison is apples-to-apples even without an active scaler).

    Rides the kernel's pooled fast-path timers: the sampler is
    fire-and-forget, so a generator process per run was pure overhead.
    Each timer carries ``tick`` as its value, so ``tick`` does not name
    itself: a closure that did would be a reference cycle holding the
    simulation and the hosts after the last sample.
    """
    sim = platform.sim
    hosts = platform.cluster.hosts

    def tick(again) -> None:
        samples.append(sum(host.pool.total_pss_mb(sim.now)
                           for host in hosts))
        if sim.now + interval_ms <= until_ms:
            sim.schedule_timeout(interval_ms, again, again)

    if sim.now + interval_ms <= until_ms:
        sim.schedule_timeout(interval_ms, tick, tick)


def open_loop_replay(platform, trace, duration_ms: float,
                     sample_interval_ms: float = DEFAULT_SAMPLE_INTERVAL_MS
                     ) -> Tuple[int, "array"]:
    """Fire every trace event at its time as a detached process, then
    drain.  Returns the number of events submitted and the warm-memory
    samples (an ``array('d')``).

    *trace* is any time-ordered iterable of events, read once as the
    clock reaches each one, so a lazy trace is never held whole.  Trace
    times are relative to *now* (installs already advanced the clock), so
    event ``at_ms`` fires at ``start + at_ms``.
    """
    sim = platform.sim
    start_ms = sim.now
    samples = array("d")
    _start_memory_sampler(platform, start_ms + duration_ms,
                          sample_interval_ms, samples)
    requests = 0
    for event in trace:
        at_ms = start_ms + event.at_ms
        if sim.now < at_ms:
            sim.run(until=at_ms)
        sim.process(_submit(platform, event.function),
                    name=f"load:{event.function}")
        requests += 1
    sim.run()   # drain in-flight requests, reclamation, the scaler
    return requests, samples


def build_load_trace(function_names: Sequence[str], duration_ms: float,
                     seed: int, popular_interarrival_ms: float =
                     DEFAULT_POPULAR_INTERARRIVAL_MS,
                     rare_interarrival_ms: float =
                     DEFAULT_RARE_INTERARRIVAL_MS,
                     period_ms: float = DEFAULT_MODULATION_PERIOD_MS,
                     depth: float = DEFAULT_MODULATION_DEPTH):
    """The trace of *function_names* every row of one run replays.

    The trace is :func:`~repro.workloads.generator.modulated_poisson_trace`'s
    lazy iterator: each call draws a fresh one, to be read once.
    """
    rng = RngStreams(seed)
    popularity = assign_popularity(
        function_names, rng,
        popular_interarrival_ms=popular_interarrival_ms,
        rare_interarrival_ms=rare_interarrival_ms)
    trace = modulated_poisson_trace(popularity, duration_ms, rng,
                                    period_ms=period_ms, depth=depth)
    return trace


def _tuned_params(params: Optional[CalibratedParameters],
                  keepalive_ms: float) -> CalibratedParameters:
    resolved = params or default_parameters()
    return dataclasses.replace(
        resolved,
        control_plane=dataclasses.replace(
            resolved.control_plane, warm_keepalive_ms=keepalive_ms),
        autoscale=dataclasses.replace(resolved.autoscale, enabled=True))


def run_load_platform(
        platform_name: str,
        mode: str,
        params: Optional[CalibratedParameters] = None,
        n_hosts: int = DEFAULT_N_HOSTS,
        n_functions: int = DEFAULT_N_FUNCTIONS,
        duration_ms: float = DEFAULT_DURATION_MS,
        seed: int = DEFAULT_SEED,
        capacity_per_host: int = DEFAULT_CAPACITY_PER_HOST,
        keepalive_ms: float = DEFAULT_KEEPALIVE_MS,
        popular_interarrival_ms: float = DEFAULT_POPULAR_INTERARRIVAL_MS,
        rare_interarrival_ms: float = DEFAULT_RARE_INTERARRIVAL_MS,
        chaos_plan=None, return_platform: bool = False,
        placement_policy=POLICY_HASH, autoscale_policy=None):
    """One (backend, mode) row: fresh cluster, same seed, same trace.

    *chaos_plan* optionally attaches a
    :class:`~repro.chaos.HostFailureController`, with plan times
    relative to the trace like everything else (the determinism test
    crashes a host mid-trace through this hook).  *return_platform*
    additionally returns the drained platform so tests can audit
    end-state invariants (no leaked queue slots or warm workers).

    *placement_policy* and *autoscale_policy* accept anything the policy
    registry resolves — a registered name, a DSL document, or a policy
    instance (the ``search`` experiment sweeps documents through these).
    When *autoscale_policy* is given it overrides *mode*; the outcome's
    ``mode`` field reports the resolved policy's name either way.
    """
    if platform_name not in LOAD_PLATFORMS:
        raise KeyError(f"unknown load platform {platform_name!r}; "
                       f"pick one of {tuple(LOAD_PLATFORMS)}")
    if autoscale_policy is None:
        # Unknown mode names fail here, at config-parse time, with the
        # registered names (ValidationError).
        default_registry().entry("autoscale", mode)
    tuned = _tuned_params(params, keepalive_ms)
    specs = fleet(n_functions)
    trace = build_load_trace(
        [spec.name for spec in specs], duration_ms, seed,
        popular_interarrival_ms=popular_interarrival_ms,
        rare_interarrival_ms=rare_interarrival_ms)
    platform = fresh_cluster_platform(
        LOAD_PLATFORMS[platform_name], tuned, seed=seed, n_hosts=n_hosts,
        policy=placement_policy, capacity_per_host=capacity_per_host)
    install_all(platform, specs)
    # Installs advance the clock; the replay (and the scaler's control
    # loop) run over [start, start + duration].
    start_ms = platform.sim.now
    scaler = WarmPoolAutoscaler(platform, mode=mode,
                                until_ms=start_ms + duration_ms,
                                policy=autoscale_policy)
    if chaos_plan is not None:
        from repro.chaos import HostFailureController
        from repro.chaos.plan import ChaosPlan
        # Plan times are trace-relative, like the trace itself.
        shifted = ChaosPlan([
            dataclasses.replace(event, at_ms=start_ms + event.at_ms)
            for event in chaos_plan.events])
        HostFailureController(platform, shifted, failover=True)

    requests, samples = open_loop_replay(platform, trace, duration_ms)

    # Every invocation is read from the platform's ledger: the record
    # lists keep only the invocations whose trees the tracer kept.
    ledger = platform.ledger
    latencies, waits = ledger.total_ms, ledger.queue_wait_ms
    outcome = LoadOutcome(
        platform=platform_name,
        mode=scaler.policy.name,
        n_hosts=n_hosts,
        requests=requests,
        completed=ledger.completed,
        shed=ledger.shed,
        failed=ledger.failed,
        latency=(LatencyStats.from_samples(latencies) if latencies
                 else _empty_latency()),
        queue_wait_p50_ms=percentile(waits, 50) if waits else 0.0,
        queue_wait_p99_ms=percentile(waits, 99) if waits else 0.0,
        warm_starts=ledger.by_mode.get(MODE_WARM, 0),
        provisioned=scaler.provisioned,
        peak_warm_mb=max(samples) if samples else 0.0,
        mean_warm_mb=(sum(samples) / len(samples)) if samples else 0.0)
    if return_platform:
        return outcome, platform
    return outcome


LOAD = Experiment(
    "load", "open-loop serving-layer load (extension)",
    run=lambda params, seed, platform, mode: run_load_platform(
        platform, mode, params=params, seed=seed),
    grid={f"{platform}@{mode}": {"platform": platform, "mode": mode}
          for platform in LOAD_PLATFORMS for mode in LOAD_MODES},
    render=render_lines)
