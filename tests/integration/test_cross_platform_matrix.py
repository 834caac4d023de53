"""Cross-platform matrix: every FaaSdom workload on every platform.

The broad-coverage safety net: all 8 workloads install and invoke on all
5 platforms, and the paper's global orderings hold everywhere.
"""

import pytest

from repro.bench import (fresh_cluster_platform, fresh_platform, install_all,
                         invoke_once)
from repro.chaos import (KIND_HOST_CRASH, KIND_RESTORE_CORRUPTION,
                         ChaosEvent, ChaosPlan, HostFailureController)
from repro.core import FireworksPlatform
from repro.platforms import (CatalyzerPlatform, FirecrackerPlatform,
                             GVisorPlatform, OpenWhiskPlatform)
from repro.policy.placement import POLICY_ROUND_ROBIN
from repro.workloads import all_faasdom_specs, faasdom_spec

ALL_PLATFORMS = (OpenWhiskPlatform, GVisorPlatform, FirecrackerPlatform,
                 CatalyzerPlatform, FireworksPlatform)


@pytest.fixture(scope="module")
def matrix():
    """record[platform_name][spec_name] for one invocation of everything."""
    records = {}
    for platform_cls in ALL_PLATFORMS:
        platform = fresh_platform(platform_cls)
        specs = all_faasdom_specs()
        install_all(platform, specs)
        records[platform.name] = {
            spec.name: invoke_once(platform, spec.name)
            for spec in specs
        }
    return records


class TestMatrix:
    def test_everything_ran(self, matrix):
        assert len(matrix) == 5
        for platform_name, by_spec in matrix.items():
            assert len(by_spec) == 8, platform_name
            for spec_name, record in by_spec.items():
                assert record.exec_ms > 0, (platform_name, spec_name)
                assert record.total_ms > 0, (platform_name, spec_name)

    def test_fireworks_fastest_startup_everywhere_but_sfork(self, matrix):
        for spec_name in matrix["fireworks"]:
            fw_startup = matrix["fireworks"][spec_name].startup_ms
            for platform_name, by_spec in matrix.items():
                if platform_name in ("fireworks", "catalyzer"):
                    continue  # catalyzer's sfork legitimately beats restore
                assert fw_startup < by_spec[spec_name].startup_ms, \
                    (platform_name, spec_name)

    def test_fireworks_exec_floor_on_compute_workloads(self, matrix):
        """Post-JIT execution is the floor wherever compute dominates."""
        compute_specs = [name for name in matrix["fireworks"]
                         if "fact" in name or "matrix" in name]
        for spec_name in compute_specs:
            fw_exec = matrix["fireworks"][spec_name].exec_ms
            for platform_name, by_spec in matrix.items():
                assert fw_exec <= by_spec[spec_name].exec_ms * 1.01, \
                    (platform_name, spec_name)

    def test_container_io_exception_holds(self, matrix):
        """§5.2.1(2): the one place a baseline out-executes Fireworks is
        container disk I/O (OverlayFS vs the microVM's virtio path)."""
        for spec_name in ("faas-diskio-nodejs", "faas-diskio-python"):
            assert matrix["openwhisk"][spec_name].exec_ms < \
                matrix["fireworks"][spec_name].exec_ms

    def test_python_compute_suffers_most_without_fireworks(self, matrix):
        """The interpreted-Python penalty is the largest exec gap."""
        gaps = {}
        for spec_name, fw_record in matrix["fireworks"].items():
            baseline = matrix["firecracker"][spec_name].exec_ms
            gaps[spec_name] = baseline / fw_record.exec_ms
        worst = max(gaps, key=gaps.get)
        assert worst == "faas-matrix-mult-python"

    def test_no_platform_leaks_endpoints(self, matrix):
        # The fixture platforms are gone; without retain_workers a record
        # pins no worker, so a retired sandbox and its endpoint can go.
        for by_spec in matrix.values():
            for record in by_spec.values():
                assert record.worker is None


#: Round-robin places the first baseline request on host 0; the plan
#: crashes it this long after the faults are armed, well after the
#: baseline has finished.
CRASH_AFTER_MS = 60_000.0


def _fault_row(platform_cls):
    """One backend through the fault row: an armed restore fault plus a
    host crash on a 2-host cluster.  Returns everything the assertions
    need."""
    platform = fresh_cluster_platform(platform_cls, n_hosts=2,
                                      policy=POLICY_ROUND_ROBIN)
    specs = [faasdom_spec("faas-netlatency", "nodejs"),
             faasdom_spec("faas-fact", "nodejs")]
    install_all(platform, specs)
    sim = platform.sim
    armed_at = sim.now
    crash_host = 0
    # The armed restore fault only fires on snapshot restores (Fireworks);
    # arming it everywhere asserts it is harmless elsewhere.
    HostFailureController(platform, ChaosPlan([
        ChaosEvent(armed_at, KIND_RESTORE_CORRUPTION, key=specs[0].name),
        ChaosEvent(armed_at + CRASH_AFTER_MS, KIND_HOST_CRASH,
                   host_id=crash_host)]))
    baseline = {spec.name: invoke_once(platform, spec.name)
                for spec in specs}
    assert baseline[specs[0].name].host_id == crash_host
    assert sim.now < armed_at + CRASH_AFTER_MS
    pool_before = {
        host.host_id: [entry.worker
                       for entry in host.pool.live_entries(sim.now)]
        for host in platform.cluster.hosts}
    sim.run(until=armed_at + CRASH_AFTER_MS + 5.0)
    survivors = {spec.name: invoke_once(platform, spec.name)
                 for spec in specs}
    sim.run()  # drain teardowns: nothing may stay half-reclaimed
    return platform, specs, crash_host, pool_before, baseline, survivors


@pytest.mark.parametrize("platform_cls", ALL_PLATFORMS,
                         ids=[cls.name for cls in ALL_PLATFORMS])
class TestMatrixUnderFaults:
    """The fault row: every backend survives one armed restore fault plus
    one host crash, without leaking warm-pool workers."""

    def test_post_crash_invocations_avoid_the_dead_host(self, platform_cls):
        platform, _, crash_host, _, _, survivors = _fault_row(platform_cls)
        for name, record in survivors.items():
            assert record.host_id != crash_host, name
            assert record.exec_ms > 0, name
        assert platform.ledger.failed == 0

    def test_no_warm_pool_worker_leaks(self, platform_cls):
        platform, specs, crash_host, pool_before, _, _ = \
            _fault_row(platform_cls)
        sim = platform.sim
        # The crashed host's pool is empty and every warm worker it held
        # was actually torn down (not leaked half-alive).
        crashed = platform.cluster.host(crash_host)
        assert crashed.pool.live_entries(sim.now) == []
        for worker in pool_before[crash_host]:
            assert worker.sandbox.state == "stopped"
        # Pool sizes return to baseline: the cluster holds no more warm
        # workers than before the crash, all of them on live hosts.
        total_before = sum(len(workers) for workers in pool_before.values())
        live_after = [entry
                      for host in platform.cluster.hosts
                      for entry in host.pool.live_entries(sim.now)]
        assert len(live_after) <= total_before
        for entry in live_after:
            host_ids = [host.host_id for host in platform.cluster.hosts
                        if entry in host.pool.live_entries(sim.now)]
            assert crash_host not in host_ids

    def test_restore_fault_was_consumed_or_harmless(self, platform_cls):
        platform, specs, _, _, baseline, _ = _fault_row(platform_cls)
        # Fireworks pays the regeneration; everyone else never draws the
        # budget.  Either way the baseline invocation completed.
        assert baseline[specs[0].name].total_ms > 0
        if platform_cls is FireworksPlatform:
            assert platform.restore_failures == 1
