"""Integration tests: the paper's headline claims must hold in shape.

These are the end-to-end guarantees of §5, asserted as bands rather than
exact numbers (the substrate is a simulator, not the authors' testbed).
"""

import pytest

from repro.bench import (cold_and_warm, fireworks_invocation,
                         fig12_improvements, run_fig10_platform,
                         run_fig12_workload)
from repro.bench.memory import FIG10_PLATFORMS
from repro.platforms import FirecrackerPlatform, GVisorPlatform, \
    OpenWhiskPlatform
from repro.workloads import faasdom_spec


@pytest.fixture(scope="module")
def fact_node():
    return faasdom_spec("faas-fact", "nodejs")


@pytest.fixture(scope="module")
def fact_python():
    return faasdom_spec("faas-fact", "python")


@pytest.fixture(scope="module")
def fw_fact_node(fact_node):
    return fireworks_invocation(fact_node)


@pytest.fixture(scope="module")
def fc_fact_node(fact_node):
    return cold_and_warm(FirecrackerPlatform, fact_node)


class TestFig6Claims:
    def test_cold_startup_speedup_band(self, fw_fact_node, fc_fact_node):
        """Paper: up to 133x faster cold start-up (Node fact)."""
        cold, _warm = fc_fact_node
        speedup = cold.startup_ms / fw_fact_node.startup_ms
        assert 80 <= speedup <= 200

    def test_warm_startup_speedup_band(self, fw_fact_node, fc_fact_node):
        """Paper: up to 3.8x faster warm start-up."""
        _cold, warm = fc_fact_node
        speedup = warm.startup_ms / fw_fact_node.startup_ms
        assert 2.0 <= speedup <= 6.0

    def test_exec_faster_in_cold_band(self, fw_fact_node, fc_fact_node):
        """Paper: up to 38% faster execution in cold cases (Node)."""
        cold, _warm = fc_fact_node
        improvement = 1.0 - fw_fact_node.exec_ms / cold.exec_ms
        assert 0.25 <= improvement <= 0.50

    def test_fireworks_beats_every_warm_start(self, fw_fact_node,
                                              fact_node):
        for platform_cls in (OpenWhiskPlatform, GVisorPlatform,
                             FirecrackerPlatform):
            _cold, warm = cold_and_warm(platform_cls, fact_node)
            assert fw_fact_node.startup_ms <= warm.startup_ms * 1.2


class TestFig7Claims:
    def test_python_cold_startup_band(self, fact_python):
        """Paper: 59.8x faster cold start-up (Python fact)."""
        fw = fireworks_invocation(fact_python)
        cold, _ = cold_and_warm(FirecrackerPlatform, fact_python)
        assert 40 <= cold.startup_ms / fw.startup_ms <= 90

    def test_python_exec_speedup_band(self, fact_python):
        """Paper: 20x faster execution in cold cases (Numba vs CPython)."""
        fw = fireworks_invocation(fact_python)
        cold, _ = cold_and_warm(FirecrackerPlatform, fact_python)
        assert 15 <= cold.exec_ms / fw.exec_ms <= 25

    def test_python_matmul_exec_band(self):
        """Paper: up to 80x faster execution (matmul, vectorizable)."""
        spec = faasdom_spec("faas-matrix-mult", "python")
        fw = fireworks_invocation(spec)
        cold, _ = cold_and_warm(FirecrackerPlatform, spec)
        assert 55 <= cold.exec_ms / fw.exec_ms <= 95

    def test_io_similar_across_languages(self):
        """§5.2.2(3): I/O performance mostly depends on the sandbox, not
        the language."""
        node = fireworks_invocation(faasdom_spec("faas-diskio", "nodejs"))
        python = fireworks_invocation(faasdom_spec("faas-diskio", "python"))
        assert node.guest.disk_ms == pytest.approx(python.guest.disk_ms)


class TestDiskIoClaims:
    def test_gvisor_exec_slowest_fireworks_much_faster(self):
        """Paper: up to 9.2x faster execution than other frameworks."""
        spec = faasdom_spec("faas-diskio", "nodejs")
        fw = fireworks_invocation(spec)
        gv_cold, _ = cold_and_warm(GVisorPlatform, spec)
        ratio = gv_cold.exec_ms / fw.exec_ms
        assert 6 <= ratio <= 12

    def test_container_io_beats_microvm(self):
        """§5.2.1(2): OverlayFS containers do I/O faster than microVMs."""
        spec = faasdom_spec("faas-diskio", "nodejs")
        ow_cold, _ = cold_and_warm(OpenWhiskPlatform, spec)
        fw = fireworks_invocation(spec)
        assert ow_cold.guest.disk_ms < fw.guest.disk_ms


class TestFig10Claims:
    @pytest.fixture(scope="class")
    def consolidation(self):
        return {platform: run_fig10_platform(platform, sample_every=100)
                for platform in FIG10_PLATFORMS}

    def test_fireworks_consolidates_more(self, consolidation):
        """Paper: 565 vs 337 microVMs (~1.68x more) before swapping."""
        fw = consolidation["fireworks"].max_vms_before_swap
        fc = consolidation["firecracker"].max_vms_before_swap
        assert fw / fc == pytest.approx(1.68, rel=0.15)

    def test_absolute_counts_in_band(self, consolidation):
        assert 280 <= consolidation["firecracker"].max_vms_before_swap <= 400
        assert 480 <= consolidation["fireworks"].max_vms_before_swap <= 650

    def test_per_vm_memory_lower_with_sharing(self, consolidation):
        fw_pss = consolidation["fireworks"].points[-1].mean_pss_mb
        fc_pss = consolidation["firecracker"].points[-1].mean_pss_mb
        assert fw_pss < fc_pss * 0.75


class TestFig12Claims:
    @pytest.fixture(scope="class")
    def improvements(self):
        return fig12_improvements({
            f"faas-fact-{language}": run_fig12_workload("faas-fact",
                                                        language)
            for language in ("nodejs", "python")})

    def test_os_snapshot_saves_memory_both_languages(self, improvements):
        for workload, values in improvements.items():
            assert values["os_snapshot_vs_baseline_pct"] > 30, workload

    def test_node_post_jit_saves_more(self, improvements):
        """Paper: Node post-JIT reduces memory up to 74% further."""
        assert improvements["faas-fact-nodejs"][
            "post_jit_vs_os_snapshot_pct"] > 25

    def test_python_post_jit_no_gain(self, improvements):
        """Paper: no significant improvement for Python (Numba/MCJIT
        duplication)."""
        assert improvements["faas-fact-python"][
            "post_jit_vs_os_snapshot_pct"] < 10
