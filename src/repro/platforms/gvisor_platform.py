"""gVisor sandbox-manager baseline (Table 1, row 3).

Cold start pays container creation plus gVisor's Sentry/Gofer bring-up;
every I/O pays syscall interception (the slowest I/O path in Fig 6(c)).
Warm methodology matches §5.1: install, pause, resume on invocation — the
function was never executed, so the first run still JITs.  Paused sandboxes
are host-local: they only help when placement sends the request back to
the host that has one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.platforms.base import (MODE_AUTO, MODE_COLD, MODE_WARM,
                                  ServerlessPlatform)
from repro.platforms.pooling import WarmEntry, WarmPool, require_warm
from repro.runtime import make_runtime
from repro.sandbox.gvisor import GVisorSandbox
from repro.sandbox.worker import Worker
from repro.workloads.base import FunctionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.host import Host


class GVisorPlatform(ServerlessPlatform):
    """gVisor (runsc) with Docker, as the paper evaluates it."""

    name = "gvisor"
    isolation_label = "Medium (container)"
    performance_label = "Medium (snapshot)"
    memory_label = "High (snapshot)"
    supports_chains = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)

    @property
    def pool(self) -> WarmPool:
        """Host 0's warm pool (the only pool on a single-host cluster)."""
        return self.cluster.hosts[0].pool

    def _boot_worker(self, spec: FunctionSpec, host: Host):
        worker = Worker(self.sim,
                        GVisorSandbox(self.sim, self.params,
                                      host.memory, spec.language),
                        make_runtime(self.sim, self.params, spec.language))
        yield from worker.cold_start(spec.app)
        return worker

    def provision_warm(self, name: str, host: Host = None):
        """§5.1 warm methodology: launch, install, pause.

        Defaults to the function's home host, where the hash policy (and
        a single-host cluster trivially) will look for it.
        """
        spec = self.spec(name)
        if host is None:
            host = self.cluster.home_host(name)
        worker = yield from self._boot_worker(spec, host)
        yield from worker.pause()
        host.pool.add(name, WarmEntry(worker, float("inf"), paused=True))
        return worker

    def provision_warm_on(self, spec: FunctionSpec, host: Host):
        """Autoscaler hook: launch + pause one gVisor sandbox on *host*."""
        worker = yield from self._boot_worker(spec, host)
        yield from worker.pause()
        return WarmEntry(worker, float("inf"), paused=True)

    def _acquire_worker(self, spec: FunctionSpec, mode: str, host: Host):
        if mode in (MODE_AUTO, MODE_WARM):
            entry = host.pool.take(spec.name, self.sim.now)
            if mode == MODE_WARM:
                entry = require_warm(entry, spec.name, self.name)
            if entry is not None:
                yield from entry.worker.resume()
                return entry.worker, MODE_WARM, 0.0
        worker = yield from self._boot_worker(spec, host)
        return worker, MODE_COLD, 0.0

    def _release_worker(self, spec: FunctionSpec, worker: Worker,
                        host: Host):
        del spec
        if not self.retain_workers:
            self.discard_worker(worker, host, label="teardown")
        return
        yield  # pragma: no cover
