"""Unit tests for the Fireworks microVM manager."""

import pytest

from repro.config import default_parameters
from repro.core.microvm_manager import MicroVMManager
from repro.mem.host_memory import HostMemory
from repro.net.address import IpAddress, MacAddress
from repro.net.bridge import HostBridge
from repro.runtime import make_runtime
from repro.runtime.interpreter import AppCode, GuestFunction
from repro.sandbox.microvm import MicroVM
from repro.sandbox.worker import Worker
from repro.sim import Simulation
from repro.snapshot.image import STAGE_POST_JIT
from repro.snapshot.snapshotter import Snapshotter
from tests.helpers import run


@pytest.fixture
def setup():
    sim = Simulation()
    params = default_parameters()
    host = HostMemory(params.host)
    bridge = HostBridge()
    manager = MicroVMManager(sim, params, host, bridge)
    return sim, params, host, bridge, manager


@pytest.fixture
def image(setup):
    sim, params, host, bridge, _manager = setup
    vm = MicroVM(sim, params, host, "nodejs")
    vm.assign_guest_addresses(IpAddress.parse("10.0.0.2"),
                              MacAddress(0x02F17E000001))
    worker = Worker(sim, vm, make_runtime(sim, params, "nodejs"))
    app = AppCode(name="app", language="nodejs",
                  guest_functions=(GuestFunction("main", 500.0, 3.0),))
    run(sim, worker.cold_start(app))
    run(sim, worker.force_jit())
    snapshotter = Snapshotter(sim, params.snapshot)
    img = run(sim, snapshotter.create(worker, "fn", STAGE_POST_JIT))
    run(sim, worker.stop())
    return img


class TestLaunchClone:
    def test_clone_gets_identity_via_mmds(self, setup, image):
        sim, _params, _host, _bridge, manager = setup
        fc_id = manager.next_fc_id()
        worker = run(sim, manager.launch_clone(image, fc_id))
        assert worker.sandbox.mmds.get("fcID") == fc_id
        assert worker.sandbox.mmds.get("srcfcID") == "fn"

    def test_fc_ids_are_unique(self, setup):
        _sim, _params, _host, _bridge, manager = setup
        ids = {manager.next_fc_id() for _ in range(100)}
        assert len(ids) == 100

    def test_clone_is_network_connected(self, setup, image):
        sim, _params, _host, bridge, manager = setup
        worker = run(sim, manager.launch_clone(image, "fc1"))
        assert worker.endpoint is not None
        assert bridge.endpoint_count() == 1

    def test_launch_cost_is_netns_plus_mmds_plus_restore(self, setup,
                                                         image):
        sim, params, _host, _bridge, manager = setup
        before = sim.now
        run(sim, manager.launch_clone(image, "fc1"))
        elapsed = sim.now - before
        fw = params.fireworks
        restore = manager.restorer.restore_ms(image)
        assert elapsed == pytest.approx(
            fw.netns_setup_ms + fw.mmds_write_ms + restore)

    def test_retire_releases_everything(self, setup, image):
        sim, _params, host, bridge, manager = setup
        image.materialize(host)
        base_mb = host.used_mb
        worker = run(sim, manager.launch_clone(image, "fc1"))
        run(sim, manager.retire(worker))
        assert bridge.endpoint_count() == 0
        assert host.used_mb == pytest.approx(base_mb)

    def test_retire_without_endpoint_still_stops(self, setup, image):
        sim, _params, _host, bridge, manager = setup
        worker = run(sim, manager.launch_clone(image, "fc1"))
        bridge.disconnect(worker.endpoint)
        worker.endpoint = None
        run(sim, manager.retire(worker))
        assert worker.sandbox.state == "stopped"


class TestMmdsOrdering:
    """Regression (§3.4): identity must be in MMDS *before* the restore,
    so the guest's first metadata read at resume time already sees it."""

    def test_identity_visible_the_instant_restore_completes(self, setup,
                                                            image):
        sim, _params, _host, _bridge, manager = setup
        seen = {}

        original_restore = manager.restorer.restore

        def spying_restore(img, policy, name="", mmds=None):
            # What the guest would read at resume: the MMDS handed to the
            # restorer, as populated at call time (i.e. pre-restore).
            seen["fcID"] = mmds.get("fcID")
            seen["srcfcID"] = mmds.get("srcfcID")
            return (yield from original_restore(img, policy, name=name,
                                                mmds=mmds))

        manager.restorer.restore = spying_restore
        worker = run(sim, manager.launch_clone(image, "fc7"))
        assert seen == {"fcID": "fc7", "srcfcID": "fn"}
        # And the restored VM carries that same store.
        assert worker.sandbox.mmds.get("fcID") == "fc7"

    def test_mmds_cost_charged_where_written(self, setup, image):
        sim, params, _host, _bridge, manager = setup
        worker = run(sim, manager.launch_clone(image, "fc1"))
        # No invoke span is open in this unit test, so the launch stages
        # are recorded as sibling roots.
        roots = sim.tracer.traces()
        mmds_span = next((s for s in roots if s.name == "mmds-write"), None)
        restore_span = next((s for s in roots if s.name == "restore"), None)
        assert mmds_span is not None and restore_span is not None
        assert mmds_span.duration_ms == pytest.approx(
            params.fireworks.mmds_write_ms)
        # The write happens (and is charged) strictly before the restore.
        assert mmds_span.end_ms <= restore_span.start_ms
        assert worker.sandbox.mmds.get("fcID") == "fc1"


class TestRetireExceptionSafety:
    """A failed stop must not leak host frames or NAT entries."""

    def _failing_worker(self, setup, image):
        sim, _params, _host, _bridge, manager = setup
        worker = run(sim, manager.launch_clone(image, "fc1"))

        def exploding_stop():
            raise RuntimeError("teardown blew up")
            yield  # pragma: no cover

        worker.stop = exploding_stop
        return sim, manager, worker

    def test_endpoint_disconnected_when_stop_raises(self, setup, image):
        sim, manager, worker = self._failing_worker(setup, image)
        bridge = manager.bridge
        with pytest.raises(RuntimeError, match="teardown blew up"):
            run(sim, manager.retire(worker))
        assert bridge.endpoint_count() == 0
        assert worker.endpoint is None

    def test_memory_reclaimed_when_stop_raises(self, setup, image):
        sim, manager, worker = self._failing_worker(setup, image)
        host = manager.host_memory
        image.materialize(host)  # keep shared segments alive
        with pytest.raises(RuntimeError):
            run(sim, manager.retire(worker))
        assert worker.sandbox.state == "stopped"
        assert not worker.sandbox.space.region_names()

    def test_successful_retire_unchanged(self, setup, image):
        sim, _params, _host, bridge, manager = setup
        worker = run(sim, manager.launch_clone(image, "fc1"))
        run(sim, manager.retire(worker))
        assert worker.sandbox.state == "stopped"
        assert bridge.endpoint_count() == 0
