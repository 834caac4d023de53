"""Burst-load experiments (extension): cold-start storms on a shared host.

The latency figures of §5.2 measure one invocation at a time.  This
extension asks what happens when *N* requests for the same function arrive
at once on the paper's 64-core host: every baseline must boot (or resume)
sandboxes through the shared core pool, while Fireworks restores snapshots
— each restore both cheap and sharing memory.

This quantifies the paper's consolidation argument (§2.2) on the latency
axis: tail latency under burst tracks how long a sandbox occupies a core
before the function runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Type

from repro.bench.experiment import Experiment, render_lines
from repro.bench.serialization import register_result_type
from repro.bench.stats import LatencyStats
from repro.config import CalibratedParameters, default_parameters
from repro.core.fireworks import FireworksPlatform
from repro.host.cpu import HostCpu
from repro.platforms.base import MODE_AUTO, ServerlessPlatform
from repro.platforms.firecracker import FirecrackerPlatform
from repro.platforms.openwhisk import OpenWhiskPlatform
from repro.sim.kernel import Simulation
from repro.workloads.faasdom import faasdom_spec

#: The burst and load-sweep comparison platforms, in paper-figure order.
COMPARISON_PLATFORMS = {cls.name: cls for cls in (
    FireworksPlatform, OpenWhiskPlatform, FirecrackerPlatform)}

#: Offered-load levels of the load sweep (requests per second).
LOAD_SWEEP_RATES = (20.0, 60.0, 120.0, 200.0)


@register_result_type
@dataclass(frozen=True)
class BurstResult:
    """Outcome of one burst run."""

    platform: str
    requests: int
    cores: int
    latency: LatencyStats        # per-request end-to-end latency
    makespan_ms: float           # burst start until last completion
    mean_queue_wait_ms: float
    peak_queue_length: int
    warm_share: float            # fraction served from the warm pool

    def as_line(self) -> str:
        """One-line summary for the bench output."""
        return (f"{self.platform:<22} {self.latency.as_line()} "
                f"makespan={self.makespan_ms:.0f}ms "
                f"queue(mean={self.mean_queue_wait_ms:.1f}ms "
                f"peak={self.peak_queue_length}) "
                f"warm={self.warm_share:.0%}")


def run_burst(platform_cls: Type[ServerlessPlatform],
              requests: int = 256,
              cores: int = 64,
              benchmark: str = "faas-netlatency",
              language: str = "nodejs",
              params: Optional[CalibratedParameters] = None,
              seed: int = 2022,
              **platform_kwargs) -> BurstResult:
    """Fire *requests* simultaneous invocations of one function."""
    sim = Simulation(seed=seed)
    params = params or default_parameters()
    host_cpu = HostCpu(sim, cores=cores)
    platform = platform_cls(sim, params, host_cpu=host_cpu,
                            **platform_kwargs)
    spec = faasdom_spec(benchmark, language)
    sim.run(sim.process(platform.install(spec)))

    burst_start = sim.now
    completions = []

    def one_request():
        record = yield from platform.invoke(spec.name, mode=MODE_AUTO)
        completions.append((sim.now, record))

    processes = [sim.process(one_request(), name=f"req-{i}")
                 for i in range(requests)]
    sim.run(sim.all_of(processes))

    latencies = [finished_at - burst_start for finished_at, _ in completions]
    warm = sum(1 for _, record in completions if record.mode == "warm")
    return BurstResult(
        platform=platform.name,
        requests=requests,
        cores=cores,
        latency=LatencyStats.from_samples(latencies),
        makespan_ms=max(latencies),
        mean_queue_wait_ms=host_cpu.mean_queue_wait_ms,
        peak_queue_length=host_cpu.peak_queue_length,
        warm_share=warm / requests,
    )


@register_result_type
@dataclass(frozen=True)
class LoadPoint:
    """One offered-load level of the sweep."""

    offered_rps: float
    achieved_rps: float
    latency: LatencyStats
    mean_queue_wait_ms: float

    @property
    def saturated(self) -> bool:
        """The knee: queueing dominates service time."""
        return self.mean_queue_wait_ms > self.latency.p50_ms / 2


def run_load_sweep(platform_cls: Type[ServerlessPlatform],
                   rates_rps=LOAD_SWEEP_RATES,
                   duration_ms: float = 20000.0,
                   cores: int = 64,
                   benchmark: str = "faas-netlatency",
                   language: str = "nodejs",
                   params: Optional[CalibratedParameters] = None,
                   seed: int = 2022) -> "dict[float, LoadPoint]":
    """Open-loop Poisson arrivals at each rate; find the saturation knee.

    Returns {offered_rps: LoadPoint}.  The knee is where a platform's
    sandbox-construction cost exceeds what the core pool can absorb — the
    throughput side of the paper's consolidation story.
    """
    import math

    results: "dict[float, LoadPoint]" = {}
    for rate in rates_rps:
        sim = Simulation(seed=seed)
        host_cpu = HostCpu(sim, cores=cores)
        platform = platform_cls(sim, params or default_parameters(),
                                host_cpu=host_cpu)
        spec = faasdom_spec(benchmark, language)
        sim.run(sim.process(platform.install(spec)))

        stream = sim.rng.stream(f"load-{rate}")
        arrivals = []
        t = sim.now
        while t < sim.now + duration_ms:
            t += -1000.0 / rate * math.log(1.0 - stream.random())
            arrivals.append(t)
        end_of_offered = arrivals[-1] if arrivals else sim.now

        completions = []

        def request(at_ms):
            if sim.now < at_ms:
                yield sim.timeout(at_ms - sim.now)
            started = sim.now
            yield from platform.invoke(spec.name)
            completions.append((started, sim.now))

        processed = [sim.process(request(at)) for at in arrivals]
        sim.run(sim.all_of(processed))

        latencies = [done - started for started, done in completions]
        span_ms = max(done for _, done in completions) - \
            (arrivals[0] if arrivals else 0.0)
        results[rate] = LoadPoint(
            offered_rps=rate,
            achieved_rps=len(completions) / max(span_ms, 1.0) * 1000.0,
            latency=LatencyStats.from_samples(latencies),
            mean_queue_wait_ms=host_cpu.mean_queue_wait_ms)
        del end_of_offered
    return results


def _render_load_sweep(result, out, chart=False) -> None:
    for platform, points in result.items():
        for rate, point in points.items():
            mark = " saturated" if point.saturated else ""
            print(f"{platform:<22} offered={rate:6.1f}rps "
                  f"achieved={point.achieved_rps:6.1f}rps "
                  f"p50={point.latency.p50_ms:7.1f}ms "
                  f"p99={point.latency.p99_ms:7.1f}ms "
                  f"wait={point.mean_queue_wait_ms:7.1f}ms{mark}", file=out)


BURST = Experiment(
    "burst", "burst-storm comparison (extension)",
    run=lambda params, seed, platform: run_burst(
        COMPARISON_PLATFORMS[platform], params=params, seed=seed),
    grid={platform: {"platform": platform}
          for platform in COMPARISON_PLATFORMS},
    render=render_lines)

LOAD_SWEEP = Experiment(
    "load-sweep", "offered-load saturation sweep (extension)",
    run=lambda params, seed, platform, rate: run_load_sweep(
        COMPARISON_PLATFORMS[platform], rates_rps=(rate,), params=params,
        seed=seed)[rate],
    grid={f"{platform}@{rate:g}": {"platform": platform, "rate": rate}
          for platform in COMPARISON_PLATFORMS for rate in LOAD_SWEEP_RATES},
    merge=lambda shards: {
        platform: {rate: shards[f"{platform}@{rate:g}"]
                   for rate in LOAD_SWEEP_RATES}
        for platform in COMPARISON_PLATFORMS},
    render=_render_load_sweep)
