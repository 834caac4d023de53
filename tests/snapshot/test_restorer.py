"""Unit tests for snapshot restore: CoW sharing and the restore policies."""

import dataclasses

import pytest

from repro.errors import MemoryError_, SnapshotNotFoundError, ValidationError
from repro.net.address import IpAddress, MacAddress
from repro.runtime import make_runtime
from repro.runtime.interpreter import AppCode, GuestFunction
from repro.runtime.ops import Compute, program
from repro.sandbox.microvm import MicroVM
from repro.sandbox.worker import Worker
from repro.snapshot.image import STAGE_OS, STAGE_POST_JIT
from repro.snapshot.restorer import (POLICY_DEMAND, POLICY_DEMAND_COLD,
                                     POLICY_REAP, Restorer)
from repro.snapshot.snapshotter import Snapshotter
from tests.helpers import run

GUEST_IP = IpAddress.parse("10.0.0.2")
GUEST_MAC = MacAddress(0x02F17E000001)


@pytest.fixture
def app():
    return AppCode(name="app", language="nodejs",
                   guest_functions=(GuestFunction("main", 500.0, 3.0),))


@pytest.fixture
def image(sim, params, host, app):
    vm = MicroVM(sim, params, host, "nodejs")
    vm.assign_guest_addresses(GUEST_IP, GUEST_MAC)
    worker = Worker(sim, vm, make_runtime(sim, params, "nodejs"))
    run(sim, worker.cold_start(app))
    run(sim, worker.force_jit())
    snapshotter = Snapshotter(sim, params.snapshot)
    img = run(sim, snapshotter.create(worker, "fn", STAGE_POST_JIT))
    run(sim, worker.stop())
    return img


@pytest.fixture
def restorer(sim, params, host):
    return Restorer(sim, params, host)


class TestRestore:
    def test_restored_worker_is_ready(self, sim, image, restorer):
        worker = run(sim, restorer.restore(image))
        assert worker.sandbox.state == "running"
        assert worker.sandbox.restored_from_snapshot
        assert worker.runtime.state == worker.runtime.STATE_LOADED
        assert worker.runtime.jit.optimized_functions() == ("main",)
        assert worker.app is image.app

    def test_clone_inherits_snapshot_identity(self, sim, image, restorer):
        worker = run(sim, restorer.restore(image))
        assert worker.sandbox.guest_ip == GUEST_IP
        assert worker.sandbox.guest_mac == GUEST_MAC

    def test_restore_is_fast(self, sim, image, restorer):
        """§3.4: invoking is nothing but loading the snapshot into memory —
        orders of magnitude below a 2.2 s cold boot."""
        before = sim.now
        run(sim, restorer.restore(image))
        assert sim.now - before < 50

    def test_restored_worker_executes_jitted(self, sim, image, restorer):
        worker = run(sim, restorer.restore(image))
        breakdown = run(sim, worker.invoke(program(Compute(5400))))
        assert breakdown.jit_compile_ms == 0
        assert breakdown.compute_ms == pytest.approx(100)  # 5400/(18*3)

    def test_clones_share_memory(self, sim, host, image, restorer):
        # The first restore faults the image into the page cache once.
        image.materialize(host)
        used_before = host.used_mb
        workers = [run(sim, restorer.restore(image)) for _ in range(5)]
        vmm = workers[0].sandbox.layout.vmm_overhead_mb
        # Additional host memory is ~5 VMM overheads, not 5 full guests.
        assert host.used_mb - used_before == pytest.approx(5 * vmm)
        pss = workers[0].pss_mb()
        assert pss < image.size_mb / 2  # shared across 5 + page cache

    def test_runtime_state_isolated_between_clones(self, sim, image,
                                                   restorer):
        first = run(sim, restorer.restore(image))
        second = run(sim, restorer.restore(image))
        run(sim, first.invoke(program(
            Compute(100, arg_shape=("int",)))))
        assert first.runtime.jit.state("main").deopt_count == 1
        assert second.runtime.jit.state("main").deopt_count == 0

    def test_out_of_range_exec_fraction_raises_at_first_run(
            self, sim, params, host, image):
        # No page plan then: the general touch raises at the clone's
        # first run, after writing the heap that comes before jit_code.
        layout = dataclasses.replace(params.memory_layout("nodejs"),
                                     exec_dirty_jit_fraction=1.5)
        bad = dataclasses.replace(params, memory_layouts={
            **params.memory_layouts, "nodejs": layout})
        clone = run(sim, Restorer(sim, bad, host).restore(image))
        assert image.template.params is bad and image.template.plan is None
        with pytest.raises(MemoryError_, match="out of"):
            run(sim, clone.invoke(program(Compute(100))))
        heap = dict(image.template.clone_map.segments)["heap"]
        assert heap.total_dirty_pages > 0

    def test_os_stage_restore_needs_app_load(self, sim, params, host,
                                             restorer):
        vm = MicroVM(sim, params, host, "nodejs")
        vm.assign_guest_addresses(GUEST_IP, GUEST_MAC)
        worker = Worker(sim, vm, make_runtime(sim, params, "nodejs"))
        run(sim, vm.boot())
        run(sim, worker.runtime.launch())
        vm.map_runtime_memory()
        snapshotter = Snapshotter(sim, params.snapshot)
        os_image = run(sim, snapshotter.create(worker, "fn", STAGE_OS))

        clone = run(sim, restorer.restore(os_image))
        assert clone.runtime.state == clone.runtime.STATE_LAUNCHED
        assert clone.app is None

        app = AppCode(name="late", language="nodejs")
        run(sim, clone.load_app_only(app))
        assert clone.app is app
        assert clone.sandbox.space.has_region("heap")


class TestPolicies:
    def test_unknown_policy_raises(self, image, restorer):
        # An unknown policy name is a usage error, not a store miss.
        with pytest.raises(ValidationError):
            restorer.restore_ms(image, policy="yolo")

    def test_unknown_policy_is_not_a_store_miss(self, image, restorer):
        with pytest.raises(ValidationError) as err:
            restorer.restore_ms(image, policy="yolo")
        assert not isinstance(err.value, SnapshotNotFoundError)

    def test_cold_cache_slower_than_warm(self, image, restorer):
        warm = restorer.restore_ms(image, POLICY_DEMAND)
        cold = restorer.restore_ms(image, POLICY_DEMAND_COLD)
        assert cold > 2 * warm

    def test_reap_beats_cold_demand_paging(self, image, restorer):
        """REAP's claim [54]: prefetching beats faulting from disk."""
        cold = restorer.restore_ms(image, POLICY_DEMAND_COLD)
        reap = restorer.restore_ms(image, POLICY_REAP)
        assert reap < cold

    def test_python_working_set_larger(self, sim, params, host, restorer):
        """Numba's duplicated code inflates the restore working set."""
        node_layout = params.memory_layout("nodejs")
        python_layout = params.memory_layout("python")
        assert python_layout.snapshot_working_set_mb_fraction > \
            node_layout.snapshot_working_set_mb_fraction
