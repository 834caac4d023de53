"""Cluster scheduling experiment (extension): placement across real hosts.

Replays the same Azure-like trace (Shahrad et al. [48] popularity split)
against a multi-host cluster under every placement policy, twice:

* **OpenWhisk replay** — warm containers are host-local, so the policy
  decides the *warm-hit rate*: hash keeps revisiting each function's home
  host inside the keep-alive window; round-robin cycles through all hosts
  and arrives after the container expired.
* **Fireworks replay** — snapshot images are host-local (installation
  seeds the home host), so the policy decides the *restore-locality rate*:
  the fraction of restores that found the image already resident instead
  of paying the modeled cross-host transfer.  ``snapshot-locality``
  placement exists to drive this toward 1.

The keep-alive window is deliberately set between the hash policy's
revisit period (one host, ~30 s for a popular function) and round-robin's
(n_hosts x 30 s), so the policies genuinely separate.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.bench.experiment import Experiment, render_lines
from repro.bench.harness import (fresh_cluster_platform, install_all,
                                 invoke_once)
from repro.bench.serialization import register_result_type
from repro.bench.stats import LatencyStats
from repro.config import CalibratedParameters, default_parameters
from repro.core.fireworks import FireworksPlatform
from repro.platforms.openwhisk import OpenWhiskPlatform
from repro.policy import default_registry
from repro.sim.rng import RngStreams
from repro.workloads.faasdom import faasdom_spec
from repro.workloads.generator import assign_popularity, poisson_trace

#: Keep-alive window for the OpenWhisk replay: longer than a popular
#: function's ~30 s inter-arrival (hash stays warm), shorter than the
#: 4-host round-robin revisit period (~120 s goes cold).
KEEPALIVE_MS = 90_000.0
POPULAR_INTERARRIVAL_MS = 30_000.0
RARE_INTERARRIVAL_MS = 600_000.0


@register_result_type
@dataclasses.dataclass(frozen=True)
class ClusterPolicyOutcome:
    """One placement policy's outcome on the replayed cluster trace."""

    policy: str
    n_hosts: int
    requests: int
    warm_hit_rate: float           # OpenWhisk replay
    restore_locality_rate: float   # Fireworks replay
    cross_host_transfers: int      # Fireworks replay
    latency: LatencyStats          # Fireworks end-to-end latency
    load_spread: int               # max-min placements across hosts (FW)

    def as_line(self) -> str:
        """One-line summary for the bench output."""
        return (f"{self.policy:<17} warm-hit={self.warm_hit_rate:6.1%} "
                f"restore-local={self.restore_locality_rate:6.1%} "
                f"transfers={self.cross_host_transfers:4d} "
                f"p50={self.latency.p50_ms:7.1f}ms "
                f"spread={self.load_spread}")


def _replay(platform, trace) -> List[float]:
    """Replay *trace* on *platform*, verifying every invocation."""
    latencies: List[float] = []
    for event in trace:
        if platform.sim.now < event.at_ms:
            platform.sim.run(until=event.at_ms)
        record = invoke_once(platform, event.function)
        latencies.append(record.total_ms)
    return latencies


def run_cluster_scheduling(
        params: Optional[CalibratedParameters] = None,
        n_hosts: int = 4,
        n_functions: int = 12,
        duration_ms: float = 600_000.0,
        seed: int = 11) -> Dict[str, ClusterPolicyOutcome]:
    """Warm-hit and restore-locality rates per placement policy.

    The same deterministic trace is replayed for every registered
    built-in placement policy, so the outcomes differ only by placement.
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

    outcomes: Dict[str, ClusterPolicyOutcome] = {}
    for policy in default_registry().names("placement"):
        # OpenWhisk replay: host-local warm containers.
        ow = fresh_cluster_platform(OpenWhiskPlatform, tuned,
                                    n_hosts=n_hosts, policy=policy)
        install_all(ow, specs)
        _replay(ow, trace)
        warm_rate = ow.warm_starts / max(1, ow.warm_starts + ow.cold_starts)

        # Fireworks replay: host-local snapshot images.
        fw = fresh_cluster_platform(FireworksPlatform, tuned,
                                    n_hosts=n_hosts, policy=policy)
        install_all(fw, specs)
        fw_latencies = _replay(fw, trace)
        fw.sim.run()  # drain clone teardowns
        restores = fw.local_restores + fw.cross_host_transfers
        outcomes[policy] = ClusterPolicyOutcome(
            policy=policy,
            n_hosts=n_hosts,
            requests=len(trace),
            warm_hit_rate=warm_rate,
            restore_locality_rate=fw.local_restores / max(1, restores),
            cross_host_transfers=fw.cross_host_transfers,
            latency=LatencyStats.from_samples(fw_latencies),
            load_spread=int(fw.cluster.load_spread()))
    return outcomes


CLUSTER = Experiment(
    "cluster", "cluster placement policies (extension)",
    run=lambda params, seed: run_cluster_scheduling(params, seed=seed),
    render=render_lines)
