"""Firecracker sandbox-manager baselines.

Two variants, both providing VM-level isolation (Table 1, row 1):

* :class:`FirecrackerPlatform` — plain Firecracker: cold start boots the
  microVM, guest OS, runtime, and loads the function (the slowest cold start
  in Fig 6); warm start resumes a *paused* microVM that was installed but
  never executed (§5.1 methodology), so the first execution still JITs.
* :class:`FirecrackerSnapshotPlatform` — Firecracker *using a snapshot*
  (§5.2's extra comparison point and Fig 11's factor analysis): the install
  phase snapshots the VM at a configurable stage (after OS boot + runtime
  agent, or after app load), and invocation restores it.  No forced JIT —
  that is the piece Fireworks adds.

Neither variant can execute chains of functions (§5.3).

Warm microVMs and snapshot images are host-local: installation seeds the
function's home host, and a snapshot restore on any other host first pays
the modeled cross-host transfer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.errors import PlatformError
from repro.platforms.base import (MODE_AUTO, MODE_COLD, MODE_SNAPSHOT,
                                  MODE_WARM, ServerlessPlatform)
from repro.platforms.pooling import WarmEntry, WarmPool, require_warm
from repro.runtime import make_runtime
from repro.sandbox.microvm import MicroVM
from repro.sandbox.worker import Worker
from repro.snapshot.image import STAGE_OS, STAGE_POST_LOAD
from repro.snapshot.restorer import POLICY_DEMAND, Restorer
from repro.snapshot.snapshotter import Snapshotter
from repro.storage.snapshot_store import SnapshotStore
from repro.workloads.base import FunctionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.host import Host


class FirecrackerPlatform(ServerlessPlatform):
    """Plain Firecracker microVMs: highest isolation, slowest cold start."""

    name = "firecracker"
    isolation_label = "High (VM)"
    performance_label = "Medium (snapshot)"
    memory_label = "High (snapshot)"
    supports_chains = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)

    @property
    def pool(self) -> WarmPool:
        """Host 0's warm pool (the only pool on a single-host cluster)."""
        return self.cluster.hosts[0].pool

    # -- worker construction -------------------------------------------------------
    def _boot_worker(self, spec: FunctionSpec, host: Host):
        microvm = MicroVM(self.sim, self.params, host.memory,
                          spec.language)
        guest_ip, guest_mac = host.bridge.allocate_guest_addresses()
        microvm.assign_guest_addresses(guest_ip, guest_mac)
        worker = Worker(self.sim, microvm,
                        make_runtime(self.sim, self.params, spec.language))
        yield from worker.cold_start(spec.app)
        worker.endpoint = host.bridge.connect_guest(guest_ip, guest_mac)
        return worker

    def provision_warm(self, name: str, host: Host = None):
        """§5.1 warm methodology: boot, install, pause — keep in memory.

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

    # -- autoscaler hook ---------------------------------------------------------
    def provision_warm_on(self, spec: FunctionSpec, host: Host):
        """Boot + pause one microVM on *host* (the §5.1 warm methodology,
        driven by the autoscaler instead of the bench harness)."""
        worker = yield from self._boot_worker(spec, host)
        yield from worker.pause()
        return WarmEntry(worker, float("inf"), paused=True)

    def discard_worker(self, worker: Worker, host: Host,
                       label: str) -> None:
        """MicroVMs hold a bridge endpoint: disconnect on teardown."""
        self.sim.process(self._teardown(worker, host),
                         name=f"{label}:{worker.sandbox.name}")

    # -- backend hooks -----------------------------------------------------------------
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
            # The response already left; reclaim the VM off the critical
            # path.
            self.discard_worker(worker, host, label="teardown")
        return
        yield  # pragma: no cover

    def _teardown(self, worker: Worker, host: Host):
        if worker.endpoint is not None:
            host.bridge.disconnect(worker.endpoint)
            worker.endpoint = None
        yield from worker.stop()


class FirecrackerSnapshotPlatform(FirecrackerPlatform):
    """Firecracker with its VM-level snapshot feature (no post-JIT).

    ``stage`` selects what the install-phase snapshot captures:

    * ``STAGE_OS`` — Fig 11's "+VM-level OS snapshot": guest OS booted and
      runtime agent up, function not loaded; invocation pays app load and
      run-time JIT.
    * ``STAGE_POST_LOAD`` — function loaded but never executed: invocation
      pays only run-time JIT.
    """

    name = "firecracker-snapshot"

    def __init__(self, *args, stage: str = STAGE_OS,
                 restore_policy: str = POLICY_DEMAND, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if stage not in (STAGE_OS, STAGE_POST_LOAD):
            raise PlatformError(
                f"{self.name}: stage must be os/post-load, got {stage!r} — "
                "post-JIT snapshots are what Fireworks adds")
        self.stage = stage
        # No working-set recorder here: a ``lazy`` restore on this backend
        # demand-faults everything — the honest recorder-less comparison
        # point for the restore figure.
        self.restore_policy = restore_policy
        self.snapshotter = Snapshotter(self.sim, self.params.snapshot)
        self._restorers: Dict[int, Restorer] = {}

    @property
    def store(self) -> SnapshotStore:
        """Host 0's snapshot store."""
        return self.cluster.hosts[0].store

    @property
    def restorer(self) -> Restorer:
        """Host 0's restorer."""
        return self.restorer_for(self.cluster.hosts[0])

    def restorer_for(self, host: Host) -> Restorer:
        """The restorer bound to *host*'s physical memory."""
        restorer = self._restorers.get(host.host_id)
        if restorer is None:
            restorer = Restorer(self.sim, self.params, host.memory)
            restorer.chaos = self.chaos
            self._restorers[host.host_id] = restorer
        return restorer

    def on_chaos_attached(self) -> None:
        """Wire the chaos controller into restorers built before it
        attached, so they honour its slow-restore windows too."""
        for restorer in self._restorers.values():
            restorer.chaos = self.chaos

    # -- installation ---------------------------------------------------------------
    def _install_backend(self, spec: FunctionSpec, host: Host):
        microvm = MicroVM(self.sim, self.params, host.memory,
                          spec.language, name=f"install-{spec.name}")
        guest_ip, guest_mac = host.bridge.allocate_guest_addresses()
        microvm.assign_guest_addresses(guest_ip, guest_mac)
        worker = Worker(self.sim, microvm,
                        make_runtime(self.sim, self.params, spec.language))
        yield from microvm.boot()
        yield from worker.runtime.launch()
        microvm.map_runtime_memory()
        if self.stage == STAGE_POST_LOAD:
            yield from worker.runtime.load_app(spec.app)
            microvm.map_app_memory()
            worker.app = spec.app
        image = yield from self.snapshotter.create(
            worker, spec.name, self.stage)
        host.store.put(spec.name, image)
        yield from worker.stop()

    # -- invocation -------------------------------------------------------------------
    def _host_affinity(self, host: Host, function: str) -> bool:
        # Snapshot restores are cheap exactly where the image is resident.
        return host.store.contains(function)

    def _acquire_worker(self, spec: FunctionSpec, mode: str, host: Host):
        if mode == MODE_WARM:
            # Warm and snapshot starts coincide: there is nothing warmer
            # than the always-available snapshot.
            mode = MODE_AUTO
        if not any(other.store.contains(spec.name)
                   for other in self.cluster.hosts):
            raise PlatformError(
                f"{self.name}: {spec.name!r} has no snapshot; install first")
        image = yield from self._fetch_image_to_host(spec.name, host)
        worker = yield from self.restorer_for(host).restore(
            image, self.restore_policy)
        worker.endpoint = host.bridge.connect_guest(
            image.guest_ip, image.guest_mac)
        if self.stage == STAGE_OS:
            yield from worker.load_app_only(spec.app)
        return worker, MODE_SNAPSHOT, 0.0
