"""The microVM manager: snapshot-clone launch with network + metadata wiring.

§3.4-§3.5: before resuming a snapshot, Fireworks creates a network namespace
with a NAT pair (so the clone's snapshotted IP/MAC do not conflict), writes
the clone's identity (fcID) into MMDS, and only then restores the microVM.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import CalibratedParameters
from repro.mem.host_memory import HostMemory
from repro.net.bridge import HostBridge
from repro.sandbox.base import STATE_STOPPED
from repro.sandbox.microvm import Mmds
from repro.sandbox.worker import Worker
from repro.snapshot.image import SnapshotImage
from repro.snapshot.restorer import POLICY_DEMAND, Restorer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulation


class MicroVMManager:
    """Creates, restores, and retires Fireworks microVMs."""

    def __init__(self, sim: "Simulation", params: CalibratedParameters,
                 host_memory: HostMemory, bridge: HostBridge,
                 fc_prefix: str = "fc") -> None:
        self.sim = sim
        self.params = params
        self.host_memory = host_memory
        self.bridge = bridge
        self.fc_prefix = fc_prefix  # keeps fcIDs unique across per-host managers
        self.restorer = Restorer(sim, params, host_memory)
        self._fc_counter = 0

    def next_fc_id(self) -> str:
        """Allocate the next unique clone id (the guest's fcID)."""
        self._fc_counter += 1
        return f"{self.fc_prefix}{self._fc_counter}"

    def launch_clone(self, image: SnapshotImage, fc_id: str,
                     policy: str = POLICY_DEMAND):
        """Restore a clone of *image* with connectivity and identity.

        A simulation generator returning the ready :class:`Worker`.  Order
        follows §3.4: network first (step 6), identity into MMDS, then
        resume (step 7) — the guest must be able to read its fcID the
        moment it resumes.
        """
        fw = self.params.fireworks
        tracer = self.sim.tracer

        # (6) network namespace + tap + NAT for the clone's snapshotted IP.
        with tracer.span("netns-setup", fc_id=fc_id):
            yield self.sim.timeout(fw.netns_setup_ms)
        endpoint = self.bridge.connect_guest(image.guest_ip, image.guest_mac)

        # Identity via MMDS, written *before* resume so the resumed guest's
        # first metadata read already sees it (§3.4 step order).  The store
        # is created host-side here and handed to the restorer, which wires
        # it into the clone.
        mmds = Mmds()
        with tracer.span("mmds-write", fc_id=fc_id, src=image.key):
            yield self.sim.timeout(fw.mmds_write_ms)
        mmds.put("fcID", fc_id)
        mmds.put("srcfcID", image.key)

        # (7) restore the VM snapshot.  A failed restore must not leak the
        # namespace/NAT wiring set up above.
        try:
            worker = yield from self.restorer.restore(image, policy,
                                                      mmds=mmds)
        except Exception:
            self.bridge.disconnect(endpoint)
            raise
        worker.endpoint = endpoint
        return worker

    def retire(self, worker: Worker):
        """Tear a clone down, releasing network and memory.

        Exception-safe: if the sandbox teardown fails mid-way, the clone's
        guest memory is force-reclaimed and its network endpoint is still
        disconnected — a failed stop must not leak host frames or NAT
        entries.
        """
        try:
            yield from worker.stop()
        except Exception:
            sandbox = worker.sandbox
            if sandbox.state != STATE_STOPPED:
                sandbox.space.unmap_all()
                sandbox.state = STATE_STOPPED
            raise
        finally:
            if worker.endpoint is not None:
                self.bridge.disconnect(worker.endpoint)
                worker.endpoint = None
