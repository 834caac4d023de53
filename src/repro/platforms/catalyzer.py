"""Catalyzer-style baseline (extension — the paper could not measure it).

§2.3/§5.1: Catalyzer [19] is a gVisor-based platform the paper compares
against *qualitatively only* ("we do not include Catalyzer because its
source code is not publicly available").  Its design, as the paper
describes it:

* **cold start**: restore the function from a *checkpoint image* — a
  process-level (criu-style) checkpoint of the loaded sandbox, much faster
  than booting but slower than Firecracker's mmap'd VM snapshot restore
  because the process tree, file descriptors and Sentry state must be
  rebuilt;
* **warm start**: ``sfork`` — fork a clean-state sandbox template that is
  already resident, giving sub-millisecond starts;
* **isolation**: exactly gVisor's (Table 1: "Med (container)").

Modeling it lets the Table 1 row be *measured* rather than asserted, and
gives Fig 6-style numbers for the one platform the paper had to omit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from repro.errors import PlatformError
from repro.platforms.base import (MODE_AUTO, MODE_COLD, MODE_WARM,
                                  ServerlessPlatform)
from repro.runtime import make_runtime
from repro.runtime.interpreter import RuntimeImage
from repro.sandbox.base import STATE_RUNNING
from repro.sandbox.gvisor import GVisorSandbox
from repro.sandbox.worker import Worker
from repro.workloads.base import FunctionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.host import Host

#: Restoring a criu-style checkpoint: rebuild the process tree, fds, and
#: Sentry state.  Far below a cold boot, well above an sfork.
CHECKPOINT_RESTORE_MS = 95.0
#: sfork of the resident clean-state template (Catalyzer's headline number
#: is sub-millisecond warm boots).
SFORK_MS = 0.9


class _Template:
    """The resident clean-state sandbox template sfork clones from."""

    def __init__(self, worker: Worker) -> None:
        self.worker = worker          # kept resident (memory cost is real)
        # The runtime as checkpointed: every sfork restores a copy.
        self.runtime = RuntimeImage.capture(worker.runtime)


class CatalyzerPlatform(ServerlessPlatform):
    """Catalyzer: checkpoint/restore + sfork on gVisor."""

    name = "catalyzer"
    isolation_label = "Med (container)"
    performance_label = "High (pre-launching)"
    memory_label = "High (process sharing)"
    supports_chains = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._templates: Dict[Tuple[int, str], _Template] = {}

    # -- installation: build the checkpoint + resident template ----------------
    def _install_backend(self, spec: FunctionSpec, host: Host):
        # Checkpoint images are distributed at install time: every host
        # gets a resident template (sfork needs one locally), starting
        # with the home host.
        del host
        for target in self.cluster.hosts:
            worker = Worker(self.sim,
                            GVisorSandbox(self.sim, self.params,
                                          target.memory, spec.language,
                                          name=f"cat-template-{spec.name}"),
                            make_runtime(self.sim, self.params,
                                         spec.language))
            yield from worker.cold_start(spec.app)
            yield from worker.pause()
            # The template stays resident; its pages are shared by sforked
            # children (process sharing — Table 1's memory column).
            self._templates[(target.host_id, spec.name)] = _Template(worker)

    def on_host_crash(self, host: "Host") -> None:
        """Drop the crashed host's resident templates (they died with the
        machine) and reclaim their sandboxes so nothing sforks a ghost."""
        dead = [key for key in self._templates if key[0] == host.host_id]
        for key in dead:
            template = self._templates.pop(key)
            self.discard_worker(template.worker, host,
                                label="chaos-teardown")

    # -- autoscaler hook ---------------------------------------------------------
    def provision_warm_on(self, spec, host):
        """Nothing to pre-provision: Catalyzer's resident templates make
        every auto invocation an sfork (<1 ms) already — there is no cold
        start for a warm pool to hide.  Explicit no-op."""
        del spec, host
        return None
        yield  # pragma: no cover - makes this function a generator

    # -- invocation ---------------------------------------------------------------
    def _host_affinity(self, host: Host, function: str) -> bool:
        return (host.host_id, function) in self._templates

    def _acquire_worker(self, spec: FunctionSpec, mode: str, host: Host):
        template = self._templates.get((host.host_id, spec.name))
        if template is None:
            raise PlatformError(
                f"{self.name}: {spec.name!r} has no checkpoint; install "
                "first")
        if mode in (MODE_AUTO, MODE_WARM):
            # sfork: clone the resident template.
            with self.sim.tracer.span("sfork", function=spec.name):
                yield self.sim.timeout(SFORK_MS)
            worker = self._clone_from_template(spec, template, host)
            return worker, MODE_WARM, 0.0
        # Forced cold: restore the checkpoint image from disk.
        with self.sim.tracer.span("checkpoint-restore", function=spec.name):
            yield self.sim.timeout(CHECKPOINT_RESTORE_MS)
        worker = self._clone_from_template(spec, template, host)
        return worker, MODE_COLD, 0.0

    def _clone_from_template(self, spec: FunctionSpec,
                             template: _Template, host: Host) -> Worker:
        sandbox = GVisorSandbox(self.sim, self.params, host.memory,
                                spec.language)
        # A forked child shares the template's pages; only its private
        # copy-on-write state is new.  Model: map the boot/runtime/app
        # memory fresh-but-small via the normal path, which keeps the
        # accounting conservative for Catalyzer.
        sandbox.space.map_private("vmm", sandbox.layout.vmm_overhead_mb,
                                  "shim")
        sandbox.map_runtime_memory()
        sandbox.map_app_memory()
        sandbox.state = STATE_RUNNING
        return Worker(self.sim, sandbox, template.runtime.restore(self.sim),
                      app=spec.app)

    def _release_worker(self, spec: FunctionSpec, worker: Worker,
                        host: Host):
        del spec
        if not self.retain_workers:
            self.discard_worker(worker, host, label="teardown")
        return
        yield  # pragma: no cover
