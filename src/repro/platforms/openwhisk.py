"""OpenWhisk: the container-based baseline platform (Table 1, row 2).

Cold start pays container creation plus OpenWhisk's heavy initialization
(authentication, message-queue setup — §5.2.1).  After an invocation the
container stays alive for a keep-alive window; a warm start only pays
routing.  Because the *same runtime process* serves warm invocations, V8 JIT
state survives between them (§5.1: OpenWhisk warm = previously invoked).

OpenWhisk is the only baseline that can execute chains of functions (§5.3).

Warm containers live on a *specific host* of the cluster (Figure 1's
backend servers), so the placement policy decides how often requests
actually find them: hashing each function to a home host concentrates
warm state, round-robin sprays requests past it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.platforms.base import (MODE_AUTO, MODE_COLD, MODE_WARM,
                                  ServerlessPlatform)
from repro.platforms.pooling import WarmEntry, WarmPool, require_warm
from repro.policy.keepalive import FixedKeepAlive, KeepAlivePolicy
from repro.runtime import make_runtime
from repro.sandbox.container import Container
from repro.sandbox.worker import Worker
from repro.workloads.base import FunctionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.host import Host


class OpenWhiskPlatform(ServerlessPlatform):
    """Apache OpenWhisk on Kubernetes (v20.11 in the paper)."""

    name = "openwhisk"
    isolation_label = "Medium (container)"
    performance_label = "Low (no optimization)"
    memory_label = "Low (pre-launching)"
    supports_chains = True

    def __init__(self, *args,
                 keepalive_policy: Optional[KeepAlivePolicy] = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.keepalive = keepalive_policy or FixedKeepAlive(
            self.params.control_plane.warm_keepalive_ms)

    @property
    def pool(self) -> WarmPool:
        """Host 0's warm pool (the only pool on a single-host cluster)."""
        return self.cluster.hosts[0].pool

    # -- backend hooks -----------------------------------------------------------
    def _acquire_worker(self, spec: FunctionSpec, mode: str, host: Host):
        self.keepalive.observe_arrival(spec.name, self.sim.now)
        if mode in (MODE_AUTO, MODE_WARM):
            entry = host.pool.take(spec.name, self.sim.now)
            if mode == MODE_WARM:
                entry = require_warm(entry, spec.name, self.name)
            if entry is not None:
                # Warm path: the container and its runtime are still alive;
                # only OpenWhisk bookkeeping stands between us and the code.
                with self.sim.tracer.span("warm-route"):
                    yield self.sim.timeout(
                        self.params.control_plane.openwhisk_warm_route_ms)
                return entry.worker, MODE_WARM, 0.0
        self._reap_expired(host)
        worker = Worker(self.sim,
                        Container(self.sim, self.params, host.memory,
                                  spec.language),
                        make_runtime(self.sim, self.params, spec.language))
        yield from worker.cold_start(spec.app)
        return worker, MODE_COLD, 0.0

    def _release_worker(self, spec: FunctionSpec, worker: Worker,
                        host: Host):
        # Keep the container alive for the (possibly per-function,
        # policy-decided) keep-alive window, on the host that ran it.
        window = self.keepalive.window_ms(spec.name)
        host.pool.add(spec.name, WarmEntry(
            worker, self.sim.now + window, paused=False))
        return
        yield  # pragma: no cover

    # -- autoscaler hook ---------------------------------------------------------
    def provision_warm_on(self, spec: FunctionSpec, host: Host):
        """Pre-boot one container on *host*, off the critical path: the
        next request finds it warm and pays only the warm route."""
        worker = Worker(self.sim,
                        Container(self.sim, self.params, host.memory,
                                  spec.language),
                        make_runtime(self.sim, self.params, spec.language))
        yield from worker.cold_start(spec.app)
        return WarmEntry(worker, float("inf"), paused=False)

    # -- housekeeping ----------------------------------------------------------------
    def _reap_expired(self, host: Host) -> None:
        """Tear down the containers this host's pool already found expired
        (no sweep: the cold path reaps only what lookups expired; the
        periodic sweep is :meth:`reap_idle`)."""
        for entry in host.pool.drain_expired():
            self.discard_worker(entry.worker, host, label="reap")
