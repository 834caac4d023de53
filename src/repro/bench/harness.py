"""Shared experiment plumbing: build a platform, install, invoke, measure."""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Tuple, Type

from repro.cluster.host import Cluster
from repro.config import CalibratedParameters, default_parameters
from repro.core.fireworks import FireworksPlatform
from repro.errors import InvocationFailedError
from repro.platforms.base import (MODE_AUTO, MODE_COLD, MODE_WARM,
                                  InvocationRecord, ServerlessPlatform)
from repro.platforms.firecracker import (FirecrackerPlatform,
                                         FirecrackerSnapshotPlatform)
from repro.platforms.gvisor_platform import GVisorPlatform
from repro.platforms.openwhisk import OpenWhiskPlatform
from repro.policy.placement import POLICY_HASH
from repro.sim.kernel import Simulation
from repro.trace import verify_invocation
from repro.workloads.base import ChainSpec, FunctionSpec
from repro.workloads.faasdom import faasdom_spec
from repro.workloads.generator import TraceEvent

def fresh_platform(platform_cls: Type[ServerlessPlatform],
                   params: Optional[CalibratedParameters] = None,
                   seed: int = 2022,
                   **kwargs) -> ServerlessPlatform:
    """A platform on its own simulation and host (isolated experiment)."""
    sim = Simulation(seed=seed)
    return platform_cls(sim, params or default_parameters(), **kwargs)


def fresh_cluster_platform(platform_cls: Type[ServerlessPlatform],
                           params: Optional[CalibratedParameters] = None,
                           seed: int = 2022,
                           n_hosts: int = 1,
                           policy: str = POLICY_HASH,
                           capacity_per_host: Optional[int] = None,
                           cores_per_host: Optional[int] = None,
                           **kwargs) -> ServerlessPlatform:
    """A platform scheduling over its own N-host cluster."""
    sim = Simulation(seed=seed)
    resolved = params or default_parameters()
    cluster = Cluster(sim, resolved, n_hosts=n_hosts, policy=policy,
                      capacity_per_host=capacity_per_host,
                      cores_per_host=cores_per_host)
    return platform_cls(sim, resolved, cluster=cluster, **kwargs)


def install_all(platform: ServerlessPlatform,
                specs: Iterable[FunctionSpec]) -> None:
    """Run the install phase for every spec, to completion."""
    sim = platform.sim
    for spec in specs:
        sim.run(sim.process(platform.install(spec)))


def warm_hit_rate(platform: ServerlessPlatform) -> float:
    """The share of *platform*'s completed invocations served warm."""
    ledger = platform.ledger
    return ledger.by_mode.get(MODE_WARM, 0) / max(1, ledger.completed)


def install_chain(platform: ServerlessPlatform, chain: ChainSpec) -> None:
    """Install every function of a chain."""
    install_all(platform, chain.functions)


def invoke_once(platform: ServerlessPlatform, name: str,
                mode: str = MODE_AUTO,
                payload: Optional[dict] = None) -> InvocationRecord:
    """One measured invocation, run to completion and trace-verified."""
    sim = platform.sim
    record = sim.run(sim.process(platform.invoke(name, payload=payload,
                                                 mode=mode)))
    # Every measured invocation must tell the same story twice: its span
    # tree and its record breakdown (root span duration == end-to-end,
    # exactly).
    verify_invocation(record)
    return record


def provision_warm(platform: ServerlessPlatform, name: str) -> None:
    """Pre-provision a warm sandbox per §5.1's methodology."""
    sim = platform.sim
    if hasattr(platform, "provision_warm"):
        sim.run(sim.process(platform.provision_warm(name)))
    else:
        # OpenWhisk-style: invoking once leaves the container warm.
        invoke_once(platform, name, mode=MODE_COLD)


def cold_and_warm(platform_cls: Type[ServerlessPlatform],
                  spec: FunctionSpec,
                  params: Optional[CalibratedParameters] = None
                  ) -> Tuple[InvocationRecord, InvocationRecord]:
    """Measure one cold and one warm invocation on a fresh platform."""
    platform = fresh_platform(platform_cls, params)
    install_all(platform, [spec])
    cold = invoke_once(platform, spec.name, mode=MODE_COLD)
    provision_warm(platform, spec.name)
    warm = invoke_once(platform, spec.name, mode=MODE_WARM)
    return cold, warm


def fireworks_invocation(spec: FunctionSpec,
                         params: Optional[CalibratedParameters] = None,
                         **platform_kwargs) -> InvocationRecord:
    """Install + one invocation on a fresh Fireworks platform."""
    platform = fresh_platform(FireworksPlatform, params, **platform_kwargs)
    install_all(platform, [spec])
    return invoke_once(platform, spec.name)


def fleet(n_functions: int) -> List[FunctionSpec]:
    """The function set of the trace replays: FaaSdom ``faas-netlatency``
    (Node.js) under the names ``fn-00``, ``fn-01``, ..."""
    base = faasdom_spec("faas-netlatency", "nodejs")
    return [dataclasses.replace(base, name=f"fn-{index:02d}")
            for index in range(n_functions)]


def replay(platform: ServerlessPlatform,
           trace: Iterable[TraceEvent]) -> List[InvocationRecord]:
    """Closed-loop replay: invoke each event at its trace time, to
    completion (:func:`invoke_once`), and return the completed records.

    An invocation that fails under a chaos controller returns no record:
    it is counted in ``platform.ledger``, not raised.
    """
    sim = platform.sim
    records: List[InvocationRecord] = []
    for event in trace:
        if sim.now < event.at_ms:
            sim.run(until=event.at_ms)
        try:
            records.append(invoke_once(platform, event.function))
        except InvocationFailedError:
            pass
    return records


__all__ = [
    "FirecrackerPlatform",
    "FirecrackerSnapshotPlatform",
    "FireworksPlatform",
    "GVisorPlatform",
    "OpenWhiskPlatform",
    "cold_and_warm",
    "fireworks_invocation",
    "fleet",
    "fresh_cluster_platform",
    "fresh_platform",
    "install_all",
    "install_chain",
    "invoke_once",
    "provision_warm",
    "replay",
]
