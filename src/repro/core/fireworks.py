"""The Fireworks serverless platform (§3) — the paper's contribution.

Installation creates a VM-level *post-JIT* snapshot of every function;
invocation publishes the arguments to a per-instance Kafka topic, wires a
network namespace for the clone, writes its identity into MMDS, restores the
snapshot, and the resumed guest fetches the arguments and runs the original
entry point — already loaded, already JITted (Figure 2).

There is no cold/warm distinction: Fireworks always resumes from the
snapshot (§5.1).

Snapshot machinery is per-host: each cluster host has its own installer,
microVM manager (restorer), and snapshot store.  Installation seeds the
function's home host; a restore placed on a host without the image first
pays the modeled cross-host snapshot transfer — the cost the
``snapshot-locality`` placement policy exists to avoid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.chaos.plan import KIND_PARAM_FETCH_TIMEOUT
from repro.core.installer import Installer, InstallReport
from repro.core.microvm_manager import MicroVMManager
from repro.core.parameter_passer import ParameterPasser
from repro.errors import (InjectedFault, PlatformError,
                          SnapshotCorruptedError, SnapshotNotFoundError)
from repro.platforms.base import MODE_SNAPSHOT, MODE_WARM, ServerlessPlatform
from repro.platforms.pooling import WarmEntry
from repro.sandbox.worker import Worker
from repro.snapshot.image import SnapshotImage
from repro.snapshot.prefetch import ReapRecorder
from repro.snapshot.restorer import POLICY_DEMAND
from repro.storage.snapshot_store import SnapshotStore
from repro.workloads.base import FunctionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.host import Host


class FireworksPlatform(ServerlessPlatform):
    """Fireworks: VM isolation, snapshot+JIT performance (Table 1, last row)."""

    name = "fireworks"
    isolation_label = "High (VM)"
    performance_label = "Extreme (snapshot+JIT)"
    memory_label = "Extreme (snapshot+JIT)"
    supports_chains = True

    #: How often a corrupted snapshot is regenerated before giving up.
    MAX_RESTORE_ATTEMPTS = 2
    #: How often the guest retries a failed parameter fetch (§3.6).
    MAX_PARAM_FETCH_ATTEMPTS = 3
    PARAM_FETCH_BACKOFF_MS = 1.0

    def __init__(self, *args, restore_policy: str = POLICY_DEMAND,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.restore_policy = restore_policy
        self._installers: Dict[int, Installer] = {}
        self._managers: Dict[int, MicroVMManager] = {}
        self.passer = ParameterPasser(self.sim, self.bus,
                                      self.params.fireworks)
        self.restore_failures = 0
        self.param_fetch_retries = 0
        self.regenerations = 0   # failover regenerations (lost replicas)
        self.install_reports: Dict[str, InstallReport] = {}
        # Autoscaler support: pre-restored live clones parked in a host's
        # warm pool keep the fcID they were launched with — the invoke
        # fast path publishes parameters straight to that topic.
        self._warm_fc_ids: Dict[Worker, tuple] = {}
        self.pool_hits = 0   # invocations served by a pre-restored clone
        # REAP-style working-set recording (§7): profiles are captured after
        # each invocation and consulted by POLICY_REAP / POLICY_LAZY
        # restores and by streaming cross-host transfers.  The recorder is
        # cluster-global — profiles are keyed on image key+generation,
        # which a transferred replica shares.
        self.recorder = ReapRecorder(
            chunk_size_mb=self.params.snapshot.chunk_mb)

    # -- per-host machinery -------------------------------------------------------
    def installer_for(self, host: Host) -> Installer:
        """The installer bound to *host*'s memory and bridge."""
        installer = self._installers.get(host.host_id)
        if installer is None:
            installer = Installer(self.sim, self.params, host.memory,
                                  host.bridge)
            self._installers[host.host_id] = installer
        return installer

    def manager_for(self, host: Host) -> MicroVMManager:
        """The microVM manager (and restorer) bound to *host*."""
        manager = self._managers.get(host.host_id)
        if manager is None:
            # Host 0 keeps the bare "fc" prefix so single-host traces are
            # unchanged; other hosts' fcIDs stay globally unique.
            prefix = "fc" if host.host_id == 0 else f"h{host.host_id}fc"
            manager = MicroVMManager(self.sim, self.params, host.memory,
                                     host.bridge, fc_prefix=prefix)
            manager.restorer.recorder = self.recorder
            manager.restorer.chaos = self.chaos
            self._managers[host.host_id] = manager
        return manager

    def on_chaos_attached(self) -> None:
        """Wire the chaos controller into the parameter passer and into
        restorers built before it attached, so they honour its
        slow-restore windows and fault budgets too."""
        self.passer.chaos = self.chaos
        for manager in self._managers.values():
            manager.restorer.chaos = self.chaos

    @property
    def installer(self) -> Installer:
        """Host 0's installer."""
        return self.installer_for(self.cluster.hosts[0])

    @property
    def manager(self) -> MicroVMManager:
        """Host 0's microVM manager."""
        return self.manager_for(self.cluster.hosts[0])

    @property
    def store(self) -> SnapshotStore:
        """Host 0's snapshot store."""
        return self.cluster.hosts[0].store

    # -- installation phase (§3.1 steps 1-4) ------------------------------------
    def _install_backend(self, spec: FunctionSpec, host: Host):
        report = yield from self.installer_for(host).install(spec)
        host.store.put(spec.name, report.image)
        self.install_reports[spec.name] = report

    def image_for(self, name: str, host: Host = None) -> SnapshotImage:
        """The stored snapshot image for *name* on *host* (default host 0);
        refreshes LRU recency."""
        if host is None:
            host = self.cluster.hosts[0]
        image = host.store.get(name)
        if not isinstance(image, SnapshotImage):  # pragma: no cover
            raise PlatformError(f"corrupt snapshot store entry for {name!r}")
        return image

    # -- invocation phase (§3.1 steps 5-8) ------------------------------------------
    def _host_affinity(self, host: Host, function: str) -> bool:
        # Restores are only cheap where the snapshot is already resident.
        return host.store.contains(function)

    def _transfer_working_set_mb(self, image):
        # Streaming transfers ship the recorded working-set chunks first;
        # with no profile yet (or a stale generation) the whole image moves.
        profile = self.recorder.profile_for(image)
        if profile is None:
            return None
        return profile.chunk_bytes_mb(image)

    def _acquire_worker(self, spec: FunctionSpec, mode: str, host: Host):
        del mode  # Fireworks has no cold/warm distinction (§5.1).
        tracer = self.sim.tracer
        if self.autoscaler is not None:
            # Serving-layer fast path: a clone the autoscaler pre-restored
            # on this host skips image fetch, netns/MMDS wiring and the
            # restore — only parameter publish + fetch remain.
            entry = host.pool.take(spec.name, self.sim.now)
            if entry is not None:
                fc_rec = self._warm_fc_ids.pop(entry.worker, None)
                if fc_rec is not None:
                    # Clones are single-use: tell the scaler so it tops
                    # the pool back up instead of waiting for a tick.
                    self.autoscaler.on_warm_taken(spec.name, host)
                    result = yield from self._invoke_pooled(
                        spec, entry.worker, fc_rec[0], host)
                    return result
                # Unknown provenance: never serve a clone whose fcID we
                # lost — reclaim it and fall through to a normal restore.
                self.discard_warm(entry, host)
        manager = self.manager_for(host)
        try:
            image = yield from self._fetch_image_to_host(spec.name, host)
        except SnapshotNotFoundError:
            # Every replica died (the home host crashed before the image
            # spread).  With failover on, re-create the snapshot on this
            # host from the installed image's metadata; otherwise the
            # function is simply unavailable.
            if self.chaos is None or not self.chaos.failover \
                    or spec.name not in self.install_reports:
                raise
            image = yield from self._regenerate_on_host(spec.name, host)
        fc_id = manager.next_fc_id()

        # (5) put the arguments into the parameter passer queue *before*
        # resuming, so the guest's kafkacat finds them.  Publishing is
        # control-plane work, not start-up: tag it phase="other".
        started = self.sim.now
        with tracer.span("publish", phase="other", fc_id=fc_id):
            yield from self.passer.publish(fc_id, {"function": spec.name})
        publish_ms = self.sim.now - started

        # (6)+(7) network, metadata, restore.  A corrupted image is
        # regenerated once (the same §6 machinery ASLR re-randomization
        # uses) before the restore is retried.  A clone that never comes
        # up takes its parameter topic with it.
        try:
            for attempt in range(1, self.MAX_RESTORE_ATTEMPTS + 1):
                try:
                    worker = yield from manager.launch_clone(
                        image, fc_id, policy=self.restore_policy)
                    break
                except SnapshotCorruptedError:
                    self.restore_failures += 1
                    if attempt == self.MAX_RESTORE_ATTEMPTS:
                        raise
                    with tracer.span("retry", kind="retry",
                                     target="restore", attempt=attempt,
                                     fc_id=fc_id):
                        image = yield from self.regenerate_snapshot(
                            spec.name, host=host)
        except Exception:
            self.passer.release(fc_id)
            raise

        yield from self._fetch_params(spec, worker, fc_id, host)
        return worker, MODE_SNAPSHOT, publish_ms

    def _fetch_params(self, spec: FunctionSpec, worker: Worker, fc_id: str,
                      host: Host):
        """Step (8): the resumed guest reads its fcID and fetches the
        parameters, retrying transient broker failures.  A fetch that
        fails for good retires the clone through its host's manager and
        releases its parameter state."""
        tracer = self.sim.tracer
        for attempt in range(1, self.MAX_PARAM_FETCH_ATTEMPTS + 1):
            try:
                with tracer.span("param-fetch", fc_id=fc_id,
                                 attempt=attempt):
                    params = yield from self.passer.fetch(
                        fc_id, fault_key=spec.name)
                break
            except InjectedFault as fault:
                if fault.kind != KIND_PARAM_FETCH_TIMEOUT or \
                        attempt == self.MAX_PARAM_FETCH_ATTEMPTS:
                    self.passer.release(fc_id)
                    self._retire(worker, host)
                    raise
                self.param_fetch_retries += 1
                with tracer.span("retry", kind="retry",
                                 target="param-fetch", attempt=attempt,
                                 fc_id=fc_id):
                    yield self.sim.timeout(self.PARAM_FETCH_BACKOFF_MS)
        if params.get("function") != spec.name:
            raise PlatformError(
                f"parameter passer mismatch: expected {spec.name!r}, "
                f"got {params!r}")

    def _invoke_pooled(self, spec: FunctionSpec, worker: Worker,
                       fc_id: str, host: Host):
        """Steps (5)+(8) only: the clone is already restored and waiting.

        Publish the arguments to its topic, let the guest fetch them —
        the restore (and everything before it) was paid off the critical
        path when the autoscaler pre-provisioned the clone.
        """
        tracer = self.sim.tracer
        started = self.sim.now
        with tracer.span("publish", phase="other", fc_id=fc_id,
                         pooled=True):
            yield from self.passer.publish(fc_id, {"function": spec.name})
        publish_ms = self.sim.now - started
        yield from self._fetch_params(spec, worker, fc_id, host)
        self.pool_hits += 1
        return worker, MODE_WARM, publish_ms

    # -- autoscaler hooks ---------------------------------------------------------
    def provision_warm_on(self, spec: FunctionSpec, host: Host):
        """Pre-restore one clone on *host*, off the critical path.

        The clone is parked *live* (not paused): resuming a paused
        microVM costs more than a snapshot restore, so pausing would turn
        the warm pool into a pessimization.  Its memory is CoW-shared
        with the snapshot, so an idle clone is cheap to keep.
        """
        manager = self.manager_for(host)
        image = yield from self._fetch_image_to_host(spec.name, host)
        fc_id = manager.next_fc_id()
        worker = yield from manager.launch_clone(
            image, fc_id, policy=self.restore_policy)
        self._warm_fc_ids[worker] = (fc_id, host.host_id)
        return WarmEntry(worker, float("inf"), paused=False)

    def discard_warm(self, entry, host: Host) -> None:
        """Retire a pooled clone through its host's manager (netns/NAT
        teardown), like post-invocation reclamation."""
        fc_rec = self._warm_fc_ids.pop(entry.worker, None)
        if fc_rec is not None:
            self.passer.release(fc_rec[0])
        self._retire(entry.worker, host, label="warm-discard")

    def _retire(self, worker: Worker, host: Host,
                label: str = "retire") -> None:
        """Tear a clone down through its host's manager (netns/NAT
        teardown), off the caller's critical path."""
        self.sim.process(self.manager_for(host).retire(worker),
                         name=f"{label}:{worker.sandbox.name}")

    def on_host_crash(self, host: Host) -> None:
        """Drop fcID bookkeeping and parameter state for clones that died
        with the host (the chaos controller already drained and stopped
        them)."""
        survivors = {}
        for worker, rec in self._warm_fc_ids.items():
            if rec[1] == host.host_id:
                self.passer.release(rec[0])
            else:
                survivors[worker] = rec
        self._warm_fc_ids = survivors

    def _release_worker(self, spec: FunctionSpec, worker: Worker,
                        host: Host):
        if worker.invocations > 0:
            self.recorder.record(self.image_for(spec.name, host), worker,
                                 now_ms=self.sim.now)
        if not self.retain_workers:
            # Clone reclamation happens off the response's critical path;
            # its parameter topic goes with it.
            self.passer.release(worker.sandbox.mmds.get("fcID"))
            self._retire(worker, host)
        return
        yield  # pragma: no cover

    # -- §6 mitigations -----------------------------------------------------------
    def regenerate_snapshot(self, name: str, host: Host = None):
        """Periodically re-create a function's snapshot (ASLR entropy, §6).

        A simulation generator: writes a fresh-generation image into
        *host*'s store (default host 0); clones restored afterwards share
        *new* segments, not the old ones.
        """
        if host is None:
            host = self.cluster.hosts[0]
        old_image = self.image_for(name, host)
        new_image = old_image.clone_for_regeneration()
        write_ms = (self.params.snapshot.create_base_ms
                    + new_image.size_mb * self.params.snapshot.create_per_mb_ms)
        yield self.sim.timeout(write_ms)
        host.store.put(name, new_image)
        return new_image

    def _regenerate_on_host(self, name: str, host: Host):
        """Failover regeneration: re-create *name*'s snapshot on *host*.

        The installation report's image is metadata (layout, sizes, JIT
        state) — cloning it for a new generation does not need the dead
        replica's bytes, only the snapshot-creation work (§3.1 step 4).
        The span is untagged, so the time counts as start-up: the
        failover host pays it on the critical path.
        """
        report = self.install_reports[name]
        new_image = report.image.clone_for_regeneration()
        regen_span = self.sim.tracer.span(
            "regenerate", key=name, dst=host.host_id,
            size_mb=new_image.size_mb)
        with regen_span:
            write_ms = (self.params.snapshot.create_base_ms
                        + new_image.size_mb
                        * self.params.snapshot.create_per_mb_ms)
            yield self.sim.timeout(write_ms)
            host.store.put(name, new_image)
        self.regenerations += 1
        return new_image
