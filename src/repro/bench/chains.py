"""`figure chains` (extension): multi-tenant function-chain serving.

Replays a Zipf-popular, diurnally phase-shifted multi-tenant chain trace
(:func:`repro.workloads.generator.multi_tenant_chain_trace`) open loop
across a cluster: every submission is a whole **DAG** driven by the
:class:`~repro.platforms.chains.ChainExecutor` — fan-out/fan-in, a
conditional audit stage, and a CouchDB change-feed trigger edge per
tenant — through the real admission, autoscale, and placement stack.

Each tenant owns two workflows over its own function namespace:

* **diamond** — ``split`` fans out to ``left`` + ``right``, which fan in
  to ``join``; high-priority submissions additionally take a conditional
  edge to ``audit``;
* **pipeline** — ``ingest -> store``; ``store`` writes the tenant's
  events database, whose change feed triggers ``report`` (executor-run,
  so the trigger segment works on every backend).

Rows compare the five backends under two placement policies: the default
``hash`` scheduler and the shipped ``chain-affinity`` DSL document
(successive stages score predecessors' hosts via the ``fn_affinity``
signal).  Everything derives from *seed*; two identically-seeded runs
are byte-identical (the golden chains hash locks this).
"""

from __future__ import annotations

import dataclasses
import json
import os
from array import array
from typing import Any, Dict, List, Optional, Tuple

from repro.autoscale import WarmPoolAutoscaler
from repro.bench.experiment import Experiment, render_lines
from repro.bench.harness import fresh_cluster_platform
from repro.bench.load import (DEFAULT_CAPACITY_PER_HOST, DEFAULT_KEEPALIVE_MS,
                              DEFAULT_N_HOSTS, DEFAULT_SEED, LOAD_PLATFORMS,
                              _empty_latency, _tuned_params)
from repro.bench.serialization import register_result_type
from repro.bench.stats import LatencyStats
from repro.config import CalibratedParameters
from repro.errors import ValidationError
from repro.platforms.base import MODE_WARM
from repro.platforms.chains import ChainExecutor, DagRun
from repro.platforms.scheduler import POLICY_HASH
from repro.policy import default_registry, shipped_policy_dir
from repro.runtime.interpreter import AppCode, GuestFunction
from repro.runtime.ops import Compute, DbPut, Program, Respond, program
from repro.sim.rng import RngStreams
from repro.workloads.base import FunctionSpec
from repro.workloads.dag import (EDGE_TRIGGER, DagEdge, DagSpec, DagStage,
                                 make_dag)
from repro.workloads.generator import multi_tenant_chain_trace

#: The two placement policies every backend is measured under.
CHAIN_POLICIES = (POLICY_HASH, "chain-affinity")

#: The per-tenant workflow names, in trace order.
CHAIN_DAGS = ("diamond", "pipeline")

DEFAULT_N_TENANTS = 6
DEFAULT_DURATION_MS = 120_000.0
DEFAULT_MEAN_INTERARRIVAL_MS = 18_000.0
DEFAULT_AUTOSCALE_MODE = "reactive"

_STAGE_JS = '''\
function main(params) {
    // synthetic tenant stage: fixed work, optional event-store write
    return { ok: true, tenant: params.tenant };
}
'''


@register_result_type
@dataclasses.dataclass(frozen=True)
class ChainOutcome:
    """One (backend, placement policy) row of the chains experiment."""

    platform: str
    policy: str
    n_hosts: int
    tenants: int
    chains: int                   # DAG submissions
    completed: int                # runs with every dispatched stage ok
    failed: int                   # runs with a shed/failed stage
    stages: int                   # stage dispatches (ledger total)
    triggers: int                 # change-feed segments fired
    shed_stages: int
    failed_stages: int
    latency: LatencyStats         # chain end-to-end, completed runs only
    warm_stages: int              # stage records served by a warm worker
    locality_hits: int            # stages placed on a predecessor's host
    locality_chances: int         # stages that had a predecessor hint

    @property
    def goodput(self) -> float:
        """Completed / submitted chains."""
        return self.completed / self.chains if self.chains else 1.0

    @property
    def cold_stage_share(self) -> float:
        """Fraction of executed stages that missed the warm pool."""
        if self.stages == 0:
            return 0.0
        return 1.0 - self.warm_stages / self.stages

    @property
    def locality_fraction(self) -> float:
        """Hinted stages that landed on a predecessor's host."""
        if self.locality_chances == 0:
            return 0.0
        return self.locality_hits / self.locality_chances

    def as_line(self) -> str:
        """One-line summary for the bench output."""
        return (f"{self.platform:<12} {self.policy:<15} "
                f"chains={self.chains:4d} "
                f"p50={self.latency.p50_ms:8.1f}ms "
                f"p99={self.latency.p99_ms:9.1f}ms "
                f"goodput={self.goodput:7.3%} "
                f"stages={self.stages:5d} "
                f"triggers={self.triggers:3d} "
                f"cold={self.cold_stage_share:7.2%} "
                f"locality={self.locality_fraction:7.2%}")


# ---------------------------------------------------------------------------
# Per-tenant synthetic workflows
# ---------------------------------------------------------------------------
def _stage_spec(name: str, compute_ms: float,
                put_db: str = "", doc_kb: float = 1.1) -> FunctionSpec:
    def make_program(_payload: Dict[str, Any],
                     _compute=compute_ms, _db=put_db,
                     _kb=doc_kb) -> Program:
        ops: List[Any] = [Compute(_compute)]
        if _db:
            ops.append(DbPut(_db, doc_kb=_kb))
        ops.append(Respond(0.6))
        return program(*ops)

    return FunctionSpec(
        name=name, language="nodejs",
        app=AppCode(name=name, language="nodejs",
                    guest_functions=(GuestFunction("main", 500.0, 3.0),),
                    extra_load_ms=120.0),
        make_program=make_program,
        source=_STAGE_JS,
        description="Synthetic multi-tenant chain stage",
        benchmark_suite="chains")


def tenant_events_db(tenant: str) -> str:
    """The tenant's private events database (the trigger edge's feed)."""
    return f"{tenant}-events"


def tenant_diamond_dag(tenant: str) -> DagSpec:
    """Fan-out/fan-in with a conditional audit stage."""
    prefix = f"{tenant}-dia"
    functions = (
        _stage_spec(f"{prefix}-split", 1400.0),
        _stage_spec(f"{prefix}-left", 2600.0),
        _stage_spec(f"{prefix}-right", 2100.0),
        _stage_spec(f"{prefix}-join", 1100.0),
        _stage_spec(f"{prefix}-audit", 900.0),
    )
    stages = [DagStage(name=stage, function=f"{prefix}-{stage}")
              for stage in ("split", "left", "right", "join", "audit")]
    edges = [
        DagEdge(src="split", dst="left", payload_kb=1.2),
        DagEdge(src="split", dst="right", payload_kb=1.2),
        DagEdge(src="left", dst="join", payload_kb=0.8),
        DagEdge(src="right", dst="join", payload_kb=0.8),
        DagEdge(src="join", dst="audit", payload_kb=0.5,
                when_key="priority", when_value="high"),
    ]
    return make_dag(f"{tenant}-diamond", "split", stages, edges,
                    functions=functions,
                    description=f"tenant {tenant}: diamond fan-out/fan-in")


def tenant_pipeline_dag(tenant: str) -> DagSpec:
    """Linear ingest/store with a change-feed-triggered report stage."""
    prefix = f"{tenant}-pipe"
    database = tenant_events_db(tenant)
    functions = (
        _stage_spec(f"{prefix}-ingest", 1600.0),
        _stage_spec(f"{prefix}-store", 1200.0, put_db=database),
        _stage_spec(f"{prefix}-report", 2400.0),
    )
    stages = [DagStage(name=stage, function=f"{prefix}-{stage}")
              for stage in ("ingest", "store", "report")]
    edges = [
        DagEdge(src="ingest", dst="store", payload_kb=1.0),
        DagEdge(src="store", dst="report", kind=EDGE_TRIGGER,
                database=database),
    ]
    return make_dag(f"{tenant}-pipeline", "ingest", stages, edges,
                    functions=functions,
                    description=f"tenant {tenant}: triggered pipeline")


def tenant_dags(tenant: str) -> Dict[str, DagSpec]:
    """Both workflows of one tenant, keyed by trace dag name."""
    return {"diamond": tenant_diamond_dag(tenant),
            "pipeline": tenant_pipeline_dag(tenant)}


def shipped_placement_document(name: str) -> Dict[str, Any]:
    """The shipped ``scenarios/policies`` placement document called
    *name* (by its ``name`` field, not its filename)."""
    directory = shipped_policy_dir()
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".json"):
            continue
        with open(os.path.join(directory, filename), "r",
                  encoding="utf-8") as handle:
            document = json.load(handle)
        if (document.get("domain") == "placement"
                and document.get("name") == name):
            return document
    raise ValidationError(
        f"no shipped placement document named {name!r} in {directory}")


def _resolve_chain_policy(policy: object) -> Tuple[object, str]:
    """Coerce *policy* into something ``Cluster`` accepts, plus its
    reporting name.  Registered names pass through; other strings load
    the shipped document of that name (``chain-affinity``)."""
    if isinstance(policy, str):
        if policy in default_registry().names("placement"):
            return policy, policy
        document = shipped_placement_document(policy)
        return document, policy
    if isinstance(policy, dict):
        return policy, str(policy.get("name", "document"))
    return policy, getattr(policy, "name", type(policy).__name__)


# ---------------------------------------------------------------------------
# The experiment
# ---------------------------------------------------------------------------
def build_chain_trace(n_tenants: int, duration_ms: float, seed: int,
                      mean_interarrival_ms: float =
                      DEFAULT_MEAN_INTERARRIVAL_MS):
    """The (tenants, trace) pair every row of one run replays."""
    tenants = [f"tenant-{i:02d}" for i in range(n_tenants)]
    rng = RngStreams(seed)
    trace = multi_tenant_chain_trace(
        tenants, CHAIN_DAGS, duration_ms, rng,
        mean_interarrival_ms=mean_interarrival_ms)
    return tenants, trace


def run_chains_platform(
        platform_name: str,
        policy: object = POLICY_HASH,
        params: Optional[CalibratedParameters] = None,
        n_hosts: int = DEFAULT_N_HOSTS,
        n_tenants: int = DEFAULT_N_TENANTS,
        duration_ms: float = DEFAULT_DURATION_MS,
        seed: int = DEFAULT_SEED,
        capacity_per_host: int = DEFAULT_CAPACITY_PER_HOST,
        keepalive_ms: float = DEFAULT_KEEPALIVE_MS,
        mean_interarrival_ms: float = DEFAULT_MEAN_INTERARRIVAL_MS,
        autoscale_mode: str = DEFAULT_AUTOSCALE_MODE,
        chaos_plan=None, return_platform: bool = False):
    """One (backend, placement policy) row: fresh cluster, same seed,
    same multi-tenant trace.

    Every third submission is high-priority (takes the diamond's
    conditional audit edge) — deterministic in the trace index, so the
    row is a pure function of the seed.
    """
    if platform_name not in LOAD_PLATFORMS:
        raise KeyError(f"unknown chains platform {platform_name!r}; "
                       f"pick one of {tuple(LOAD_PLATFORMS)}")
    policy_spec, policy_name = _resolve_chain_policy(policy)
    tuned = _tuned_params(params, keepalive_ms)
    tenants, trace = build_chain_trace(
        n_tenants, duration_ms, seed,
        mean_interarrival_ms=mean_interarrival_ms)
    platform = fresh_cluster_platform(
        LOAD_PLATFORMS[platform_name], tuned, seed=seed, n_hosts=n_hosts,
        policy=policy_spec, capacity_per_host=capacity_per_host)
    executor = ChainExecutor(platform)
    dags: Dict[Tuple[str, str], Any] = {}
    for tenant in tenants:
        for dag_name, dag in tenant_dags(tenant).items():
            executor.install(dag)
            dags[(tenant, dag_name)] = dag
    sim = platform.sim
    start_ms = sim.now
    WarmPoolAutoscaler(platform, mode=autoscale_mode,
                       until_ms=start_ms + duration_ms)
    if chaos_plan is not None:
        from repro.chaos import HostFailureController
        from repro.chaos.plan import ChaosPlan
        shifted = ChaosPlan([
            dataclasses.replace(event, at_ms=start_ms + event.at_ms)
            for event in chaos_plan.events])
        HostFailureController(platform, shifted, failover=True)

    runs: List[DagRun] = []
    for index, event in enumerate(trace):
        at_ms = start_ms + event.at_ms
        if sim.now < at_ms:
            sim.run(until=at_ms)
        payload = {"tenant": event.tenant,
                   "priority": "high" if index % 3 == 0 else "normal"}
        runs.append(executor.submit(dags[(event.tenant, event.dag)],
                                    payload))
    sim.run()   # drain in-flight chains, trigger segments, the scaler

    all_runs = runs + executor.trigger_runs
    latencies = array("d", (run.end_to_end_ms for run in runs
                            if not run.failed))
    stages = sum(sum(run.ledger.values()) for run in all_runs)
    results = [result for run in all_runs for result in run.executed()]
    outcome = ChainOutcome(
        platform=platform_name,
        policy=policy_name,
        n_hosts=n_hosts,
        tenants=len(tenants),
        chains=len(runs),
        completed=sum(1 for run in runs if not run.failed),
        failed=sum(1 for run in runs if run.failed),
        stages=stages,
        triggers=len(executor.trigger_runs),
        shed_stages=sum(1 for r in results if r.status == "shed"),
        failed_stages=sum(1 for r in results if r.status == "failed"),
        latency=(LatencyStats.from_samples(latencies) if latencies
                 else _empty_latency()),
        warm_stages=sum(1 for r in results
                        if r.record is not None
                        and r.record.mode == MODE_WARM),
        locality_hits=sum(run.locality_hits for run in all_runs),
        locality_chances=sum(run.locality_chances for run in all_runs))
    if return_platform:
        return outcome, platform, all_runs
    return outcome


CHAINS = Experiment(
    "chains", "multi-tenant function-chain serving (extension)",
    run=lambda params, seed, platform, policy: run_chains_platform(
        platform, policy, params=params, seed=seed),
    grid={f"{platform}@{policy}": {"platform": platform, "policy": policy}
          for platform in LOAD_PLATFORMS for policy in CHAIN_POLICIES},
    render=render_lines)
