"""Ablations and extensions beyond the paper's own figures.

* **REAP restore policies** (§7 / DESIGN.md extension): demand paging with a
  warm or cold page cache vs REAP-style working-set prefetch.
* **Snapshot-store replacement** (§6): disk-space-bounded LRU keeping hot
  functions' snapshots.
* **De-optimization** (§6): invoke the Alexa frontend with rotating argument
  shapes and verify Fireworks still wins despite deopts.
* **Warm-pool vs snapshot policy** (§1/§2.2): on an Azure-like trace where
  only 18.6% of functions are popular, compare warm-pool memory cost
  against Fireworks' snapshot-resume approach.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Dict, List, Optional

from repro.bench.experiment import Experiment, render_lines
from repro.bench.harness import (fresh_platform, install_all, invoke_once)
from repro.bench.serialization import register_result_type
from repro.config import CalibratedParameters, default_parameters
from repro.core.fireworks import FireworksPlatform
from repro.platforms.base import MODE_COLD, MODE_WARM
from repro.platforms.openwhisk import OpenWhiskPlatform
from repro.sim.rng import RngStreams
from repro.snapshot.restorer import (POLICY_DEMAND, POLICY_DEMAND_COLD,
                                     POLICY_REAP)
from repro.workloads.faasdom import faasdom_spec
from repro.workloads.generator import (assign_popularity, poisson_trace)
from repro.workloads.serverlessbench import alexa_skills_chain


# ---------------------------------------------------------------------------
# REAP restore policies
# ---------------------------------------------------------------------------
def run_restore_policy_ablation(
        params: Optional[CalibratedParameters] = None,
        benchmark: str = "faas-fact", language: str = "nodejs"
        ) -> Dict[str, float]:
    """Invocation start-up latency under each restore policy (ms)."""
    spec = faasdom_spec(benchmark, language)
    results: Dict[str, float] = {}
    for policy in (POLICY_DEMAND, POLICY_DEMAND_COLD, POLICY_REAP):
        platform = fresh_platform(FireworksPlatform, params,
                                  restore_policy=policy)
        install_all(platform, [spec])
        record = invoke_once(platform, spec.name)
        results[policy] = record.startup_ms
    return results


# ---------------------------------------------------------------------------
# Snapshot store replacement (§6)
# ---------------------------------------------------------------------------
def run_store_eviction_demo(params: Optional[CalibratedParameters] = None,
                            capacity_images: int = 3) -> Dict[str, object]:
    """Install more functions than the store can hold; count evictions."""
    base = params or default_parameters()
    params = base.with_overrides(
        snapshot=base.snapshot.__class__(
            **{**base.snapshot.__dict__,
               "store_capacity_images": capacity_images}))
    platform = fresh_platform(FireworksPlatform, params)
    specs = [faasdom_spec(name, lang)
             for name in ("faas-fact", "faas-matrix-mult", "faas-diskio",
                          "faas-netlatency")
             for lang in ("nodejs", "python")]
    install_all(platform, specs)
    return {
        "installed": len(specs),
        "resident_images": len(platform.store),
        "evictions": platform.store.evictions,
        "resident_keys": list(platform.store.keys()),
    }


# ---------------------------------------------------------------------------
# De-optimization (§6)
# ---------------------------------------------------------------------------
@register_result_type
@dataclass(frozen=True)
class DeoptResult:
    total_deopts: int
    fireworks_mean_ms: float
    openwhisk_mean_ms: float

    @property
    def fireworks_still_wins(self) -> bool:
        """§6: 'our evaluation results always show a performance
        improvement' despite de-optimization."""
        return self.fireworks_mean_ms < self.openwhisk_mean_ms


def run_deopt_experiment(params: Optional[CalibratedParameters] = None
                         ) -> DeoptResult:
    """Rotate Alexa skills so each request hits a new argument shape."""
    chain = alexa_skills_chain()
    skills = ("fact", "reminder", "smarthome", "fact", "reminder")

    fw = fresh_platform(FireworksPlatform, params)
    install_all(fw, chain.functions)
    fw_records = [invoke_once(fw, chain.entry, payload={"skill": skill})
                  for skill in skills]
    deopts = sum(r.guest.deopt_count for r in fw_records if r.guest)

    ow = fresh_platform(OpenWhiskPlatform, params)
    install_all(ow, chain.functions)
    ow_records = [invoke_once(ow, chain.entry, payload={"skill": skill})
                  for skill in skills]

    def mean_total(records) -> float:
        return sum(r.chain_total_ms() for r in records) / len(records)

    return DeoptResult(
        total_deopts=deopts,
        fireworks_mean_ms=mean_total(fw_records),
        openwhisk_mean_ms=mean_total(ow_records))


# ---------------------------------------------------------------------------
# Warm pool vs snapshot on an Azure-like trace (§1/§2.2)
# ---------------------------------------------------------------------------
@register_result_type
@dataclass(frozen=True)
class PolicyComparison:
    """Latency/memory of warm-pool OpenWhisk vs Fireworks on one trace.

    Memory is split into *idle sandbox* memory (warm containers waiting for
    a request — the waste §2.2 calls out) and, for Fireworks, the clean
    page-cache copies of the snapshot images (evictable, shared by all
    clones of a function).
    """

    events: int
    openwhisk_mean_latency_ms: float
    openwhisk_warm_hit_rate: float
    openwhisk_idle_sandbox_mb: float
    fireworks_mean_latency_ms: float
    fireworks_idle_sandbox_mb: float
    fireworks_image_cache_mb: float


def run_policy_comparison(params: Optional[CalibratedParameters] = None,
                          n_functions: int = 16,
                          duration_ms: float = 1_800_000.0,
                          seed: int = 7) -> PolicyComparison:
    """Replay the same Poisson trace on both platforms.

    Rare functions (81.4% of them) miss OpenWhisk's warm pool most of the
    time, paying cold starts and holding idle memory; Fireworks pays its
    flat snapshot-resume cost for everyone.
    """
    rng = RngStreams(seed)
    function_names = [f"fn-{i:02d}" for i in range(n_functions)]
    popularity = assign_popularity(function_names, rng)
    trace = poisson_trace(popularity, duration_ms, rng)

    base_spec = faasdom_spec("faas-netlatency", "nodejs")
    specs = {name: base_spec.__class__(
        name=name, language=base_spec.language, app=base_spec.app,
        make_program=base_spec.make_program, source=base_spec.source,
        description=base_spec.description,
        benchmark_suite=base_spec.benchmark_suite)
        for name in function_names}

    # OpenWhisk replay.
    ow = fresh_platform(OpenWhiskPlatform, params)
    install_all(ow, specs.values())
    ow_latencies: List[float] = []
    for event in trace:
        if ow.sim.now < event.at_ms:
            ow.sim.run(until=event.at_ms)
        record = invoke_once(ow, event.function)
        ow_latencies.append(record.total_ms)
    # End-of-trace idle memory: every live warm container is waiting memory.
    ow_idle_mb = ow.host_memory.used_mb
    warm_rate = ow.warm_starts / max(1, ow.warm_starts + ow.cold_starts)

    # Fireworks replay.
    fw = fresh_platform(FireworksPlatform, params)
    install_all(fw, specs.values())
    fw_latencies: List[float] = []
    for event in trace:
        if fw.sim.now < event.at_ms:
            fw.sim.run(until=event.at_ms)
        record = invoke_once(fw, event.function)
        fw_latencies.append(record.total_ms)
    fw.sim.run()  # drain clone teardowns
    image_cache_mb = sum(
        report.image.size_mb for report in fw.install_reports.values()
        if report.image.materialized)
    fw_idle_mb = fw.host_memory.used_mb - image_cache_mb

    return PolicyComparison(
        events=len(trace),
        openwhisk_mean_latency_ms=sum(ow_latencies) / len(ow_latencies),
        openwhisk_warm_hit_rate=warm_rate,
        openwhisk_idle_sandbox_mb=ow_idle_mb,
        fireworks_mean_latency_ms=sum(fw_latencies) / len(fw_latencies),
        fireworks_idle_sandbox_mb=fw_idle_mb,
        fireworks_image_cache_mb=image_cache_mb)


# ---------------------------------------------------------------------------
# Remote snapshot storage (§6)
# ---------------------------------------------------------------------------
def run_remote_store_ablation(
        params: Optional[CalibratedParameters] = None) -> Dict[str, float]:
    """Restore start-up when the snapshot image is local vs remote (§6).

    Uses the tiered store directly: a local LRU hit adds nothing; a local
    miss pays the remote download before the (identical) restore.
    """
    from repro.snapshot.restorer import Restorer
    from repro.storage.disk import BlockDevice
    from repro.storage.remote_store import (RemoteObjectStore,
                                            TieredSnapshotStore)

    spec = faasdom_spec("faas-fact", "nodejs")
    platform = fresh_platform(FireworksPlatform, params)
    install_all(platform, [spec])
    image = platform.image_for(spec.name)

    tiered = TieredSnapshotStore(BlockDevice(4096), RemoteObjectStore(),
                                 local_capacity_images=4)
    tiered.put(spec.name, image)
    restorer = Restorer(platform.sim, platform.params,
                        platform.host_memory)

    _, local_extra_ms = tiered.get(spec.name)
    local_ms = local_extra_ms + restorer.restore_ms(image, POLICY_DEMAND)

    tiered.evict_local(spec.name)
    _, remote_extra_ms = tiered.get(spec.name)
    remote_ms = remote_extra_ms + restorer.restore_ms(image, POLICY_DEMAND)

    return {"local_hit_ms": local_ms, "remote_fetch_ms": remote_ms,
            "image_mb": image.size_mb}


# ---------------------------------------------------------------------------
# Catalyzer comparison (extension: the baseline the paper could not run)
# ---------------------------------------------------------------------------
def run_catalyzer_comparison(
        params: Optional[CalibratedParameters] = None,
        benchmark: str = "faas-fact",
        language: str = "nodejs") -> Dict[str, Dict[str, float]]:
    """Catalyzer (checkpoint+sfork, gVisor isolation) vs Fireworks.

    Expected shape from Table 1: Catalyzer's *warm* (sfork) start-up beats
    even Fireworks' restore, but its cold (checkpoint) start-up loses, its
    execution still pays gVisor's I/O tax, and its isolation stays at the
    container level.
    """
    from repro.platforms.catalyzer import CatalyzerPlatform

    spec = faasdom_spec(benchmark, language)
    results: Dict[str, Dict[str, float]] = {}

    catalyzer = fresh_platform(CatalyzerPlatform, params)
    install_all(catalyzer, [spec])
    cold = invoke_once(catalyzer, spec.name, mode=MODE_COLD)
    warm = invoke_once(catalyzer, spec.name, mode=MODE_WARM)
    results["catalyzer"] = {
        "cold_startup_ms": cold.startup_ms,
        "warm_startup_ms": warm.startup_ms,
        "exec_ms": warm.exec_ms,
        "isolation": 0.0,  # container-level (flag, not a latency)
    }

    fireworks = fresh_platform(FireworksPlatform, params)
    install_all(fireworks, [spec])
    record = invoke_once(fireworks, spec.name)
    results["fireworks"] = {
        "cold_startup_ms": record.startup_ms,
        "warm_startup_ms": record.startup_ms,
        "exec_ms": record.exec_ms,
        "isolation": 1.0,  # VM-level
    }
    return results


# ---------------------------------------------------------------------------
# Keep-alive policies: fixed vs hybrid histogram [48] vs snapshots
# ---------------------------------------------------------------------------
@register_result_type
@dataclass(frozen=True)
class KeepAliveOutcome:
    """One keep-alive configuration's trace outcome."""

    label: str
    mean_latency_ms: float
    warm_hit_rate: float
    idle_sandbox_mb: float

    def as_line(self) -> str:
        """One-line summary for the bench output."""
        return (f"{self.label:<22} mean={self.mean_latency_ms:8.1f}ms "
                f"warm-hit={self.warm_hit_rate:6.1%} "
                f"idle-mem={self.idle_sandbox_mb:8.0f}M")


def run_keepalive_policy_comparison(
        params: Optional[CalibratedParameters] = None,
        n_functions: int = 12,
        duration_ms: float = 1_800_000.0,
        seed: int = 11) -> Dict[str, KeepAliveOutcome]:
    """Fixed keep-alive vs [48]'s hybrid histogram vs Fireworks.

    The adaptive policy shrinks popular functions' windows (less idle
    memory, same warm hits) and stops rare functions from holding
    containers they will not reuse — but it can only *trade* along the
    memory/latency frontier.  Fireworks sits off the frontier entirely.
    """
    from repro.platforms.keepalive import (FixedKeepAlive,
                                           HybridHistogramKeepAlive)

    rng = RngStreams(seed)
    function_names = [f"fn-{index:02d}" for index in range(n_functions)]
    popularity = assign_popularity(function_names, rng)
    trace = poisson_trace(popularity, duration_ms, rng)

    base_spec = faasdom_spec("faas-netlatency", "nodejs")
    specs = [base_spec.__class__(
        name=name, language=base_spec.language, app=base_spec.app,
        make_program=base_spec.make_program, source=base_spec.source,
        description=base_spec.description) for name in function_names]

    def replay_openwhisk(label: str, policy) -> KeepAliveOutcome:
        platform = fresh_platform(OpenWhiskPlatform, params,
                                  keepalive_policy=policy)
        install_all(platform, specs)
        latencies: List[float] = []
        for event in trace:
            if platform.sim.now < event.at_ms:
                platform.sim.run(until=event.at_ms)
            latencies.append(invoke_once(platform, event.function).total_ms)
        total = platform.warm_starts + platform.cold_starts
        # Idle memory: let the fleet settle 3 minutes past the last
        # request, then run the periodic reaper.
        platform.sim.run(until=platform.sim.now + 180000.0)
        platform.reap_idle()
        platform.sim.run()
        return KeepAliveOutcome(
            label=label,
            mean_latency_ms=sum(latencies) / len(latencies),
            warm_hit_rate=platform.warm_starts / max(1, total),
            idle_sandbox_mb=platform.host_memory.used_mb)

    results = {
        "fixed-10min": replay_openwhisk(
            "fixed-10min", FixedKeepAlive(600000.0)),
        "hybrid-histogram": replay_openwhisk(
            "hybrid-histogram", HybridHistogramKeepAlive()),
    }

    fireworks = fresh_platform(FireworksPlatform, params)
    install_all(fireworks, specs)
    fw_latencies: List[float] = []
    for event in trace:
        if fireworks.sim.now < event.at_ms:
            fireworks.sim.run(until=event.at_ms)
        fw_latencies.append(
            invoke_once(fireworks, event.function).total_ms)
    fireworks.sim.run()
    image_cache_mb = sum(
        report.image.size_mb
        for report in fireworks.install_reports.values()
        if report.image.materialized)
    results["fireworks"] = KeepAliveOutcome(
        label="fireworks",
        mean_latency_ms=sum(fw_latencies) / len(fw_latencies),
        warm_hit_rate=1.0,  # every start is a snapshot resume
        idle_sandbox_mb=fireworks.host_memory.used_mb - image_cache_mb)
    return results


# ---------------------------------------------------------------------------
# AOT (.NET) vs post-JIT snapshot (extension; §3.1/§7)
# ---------------------------------------------------------------------------
_CSHARP_FACT = """\
public static object Main(IDictionary<string, object> parameters)
{
    // integer factorization, AOT-compiled at build time
    return Factorize(parameters);
}
"""


def _dotnet_fact_spec():
    from repro.runtime.interpreter import AppCode, GuestFunction
    from repro.runtime.ops import Compute, Respond, program
    from repro.workloads.base import FunctionSpec
    app = AppCode(
        name="faas-fact-dotnet", language="dotnet",
        guest_functions=(GuestFunction("main", code_units=500.0,
                                       jit_speedup=1.0),),
        extra_load_ms=30.0)
    prog = program(Compute(27000.0), Respond(0.57))
    return FunctionSpec(
        name="faas-fact-dotnet", language="dotnet", app=app,
        make_program=lambda payload, _p=prog: _p,
        source=_CSHARP_FACT,
        description="Integer factorization, C#/.NET AOT")


def run_aot_comparison(params: Optional[CalibratedParameters] = None,
                       n_vms_for_memory: int = 10) -> Dict[str, Dict]:
    """C#/.NET AOT on Firecracker vs Node post-JIT on Fireworks (§3.1/§7).

    AOT removes the JIT penalty (execution matches Fireworks) but shares
    nothing: cold starts still boot the whole VM, pre-provisioned (warm)
    instances hold full private memory, and — per §7 — "the JIT of .NET
    does not allow sharing of code or resources".
    """
    from repro.platforms.firecracker import FirecrackerPlatform

    results: Dict[str, Dict] = {}

    aot_spec = _dotnet_fact_spec()
    firecracker = fresh_platform(FirecrackerPlatform, params)
    install_all(firecracker, [aot_spec])
    cold = invoke_once(firecracker, aot_spec.name, mode=MODE_COLD)
    sim = firecracker.sim
    sim.run(sim.process(firecracker.provision_warm(aot_spec.name)))
    warm = invoke_once(firecracker, aot_spec.name, mode=MODE_WARM)
    firecracker.retain_workers = True
    for _ in range(n_vms_for_memory):
        invoke_once(firecracker, aot_spec.name, mode=MODE_COLD)
    aot_pss = (sum(w.pss_mb() for w in firecracker.active_workers)
               / len(firecracker.active_workers))
    results["dotnet-aot-firecracker"] = {
        "cold_startup_ms": cold.startup_ms,
        "warm_startup_ms": warm.startup_ms,
        "exec_ms": cold.exec_ms,
        "jit_compile_ms": cold.guest.jit_compile_ms,
        "per_vm_pss_mb": aot_pss,
    }

    node_spec = faasdom_spec("faas-fact", "nodejs")
    fireworks = fresh_platform(FireworksPlatform, params)
    install_all(fireworks, [node_spec])
    record = invoke_once(fireworks, node_spec.name)
    fireworks.retain_workers = True
    for _ in range(n_vms_for_memory):
        invoke_once(fireworks, node_spec.name)
    fw_pss = (sum(w.pss_mb() for w in fireworks.active_workers)
              / len(fireworks.active_workers))
    results["nodejs-postjit-fireworks"] = {
        "cold_startup_ms": record.startup_ms,
        "warm_startup_ms": record.startup_ms,
        "exec_ms": record.exec_ms,
        "jit_compile_ms": record.guest.jit_compile_ms,
        "per_vm_pss_mb": fw_pss,
    }
    return results


# ---------------------------------------------------------------------------
# ASLR snapshot regeneration (§6)
# ---------------------------------------------------------------------------
def run_regeneration_demo(params: Optional[CalibratedParameters] = None
                          ) -> Dict[str, float]:
    """Cost of periodically regenerating a snapshot, and that restores
    keep working across generations."""
    spec = faasdom_spec("faas-fact", "nodejs")
    platform = fresh_platform(FireworksPlatform, params)
    install_all(platform, [spec])
    before = invoke_once(platform, spec.name)
    sim = platform.sim
    started = sim.now
    image = sim.run(sim.process(platform.regenerate_snapshot(spec.name)))
    regen_ms = sim.now - started
    after = invoke_once(platform, spec.name)
    return {
        "regeneration_ms": regen_ms,
        "generation": float(image.generation),
        "startup_before_ms": before.startup_ms,
        "startup_after_ms": after.startup_ms,
    }


# ---------------------------------------------------------------------------
# Experiment declarations
# ---------------------------------------------------------------------------
#: Ablation arms (each one shard), in report order.
ABLATION_ARMS = {
    "restore-policy": run_restore_policy_ablation,
    "store-eviction": run_store_eviction_demo,
    "deopt": run_deopt_experiment,
    "remote-store": run_remote_store_ablation,
    "catalyzer": run_catalyzer_comparison,
    "aot": run_aot_comparison,
    "regeneration": run_regeneration_demo,
}


def _print_generic(result, out, indent: str = "  ") -> None:
    """Print a dict or result dataclass as ``key value`` lines."""
    if is_dataclass(result) and not isinstance(result, type):
        result = {f.name: getattr(result, f.name) for f in fields(result)}
    if isinstance(result, dict):
        for key, value in result.items():
            if isinstance(value, dict):
                cells = " ".join(
                    f"{k}={v:.1f}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in value.items())
                print(f"{indent}{key:<22} {cells}", file=out)
            elif isinstance(value, float):
                print(f"{indent}{key:<22} {value:.2f}", file=out)
            else:
                print(f"{indent}{key:<22} {value}", file=out)
    else:
        print(f"{indent}{result}", file=out)


def _render_ablations(result, out, chart=False) -> None:
    for arm, arm_result in result.items():
        print(f"-- {arm} --", file=out)
        _print_generic(arm_result, out)


ABLATIONS = Experiment(
    "ablations", "design ablations (extension)",
    run=lambda params, seed, arm: ABLATION_ARMS[arm](params),
    grid={arm: {"arm": arm} for arm in ABLATION_ARMS},
    render=_render_ablations)

POLICIES = Experiment(
    "policies", "warm-pool vs snapshot policy (extension)",
    run=lambda params, seed: run_policy_comparison(params),
    render=lambda result, out, chart=False: _print_generic(result, out, ""))

KEEPALIVE = Experiment(
    "keepalive", "keep-alive policy comparison (extension)",
    run=lambda params, seed: run_keepalive_policy_comparison(params),
    render=render_lines)
