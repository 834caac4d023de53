"""Integration tests: memory behaviour across whole platforms."""

import pytest

from repro.bench import fresh_platform, install_all, invoke_once
from repro.bench.memory import run_fig4_view
from repro.core import FireworksPlatform
from repro.platforms import FirecrackerPlatform
from repro.workloads import faasdom_spec


class TestRetainedWorkerMemory:
    def test_fireworks_clones_cheaper_than_firecracker_vms(self):
        spec = faasdom_spec("faas-fact", "nodejs")
        means = {}
        for platform_cls in (FirecrackerPlatform, FireworksPlatform):
            platform = fresh_platform(platform_cls)
            install_all(platform, [spec])
            platform.retain_workers = True
            for _ in range(8):
                invoke_once(platform, spec.name)
            workers = platform.active_workers
            means[platform.name] = \
                sum(w.pss_mb() for w in workers) / len(workers)
        assert means["fireworks"] < means["firecracker"] / 2

    def test_marginal_clone_cost_shrinks_with_population(self):
        """The more clones, the less each additional one costs (sharing)."""
        spec = faasdom_spec("faas-fact", "nodejs")
        platform = fresh_platform(FireworksPlatform)
        install_all(platform, [spec])
        platform.retain_workers = True

        used = [platform.host_memory.used_mb]
        for _ in range(6):
            invoke_once(platform, spec.name)
            used.append(platform.host_memory.used_mb)
        increments = [b - a for a, b in zip(used, used[1:])]
        # First clone faults the image into the page cache (big);
        # subsequent clones cost only their private pages (small, equal).
        assert increments[0] > 3 * increments[1]
        for later in increments[2:]:
            assert later == pytest.approx(increments[1], rel=0.05)

    def test_language_asymmetry_in_clone_cost(self):
        """Numba-dirtied Python clones cost more than V8-lazy Node ones."""
        costs = {}
        for language in ("nodejs", "python"):
            spec = faasdom_spec("faas-fact", language)
            platform = fresh_platform(FireworksPlatform)
            install_all(platform, [spec])
            platform.retain_workers = True
            for _ in range(4):
                invoke_once(platform, spec.name)
            workers = platform.active_workers
            costs[language] = min(w.sandbox.space.uss_mb()
                                  for w in workers)
        assert costs["python"] > costs["nodejs"] * 1.5


class TestFig4Regions:
    @pytest.fixture(scope="class")
    def node_view(self):
        return run_fig4_view(n_clones=8)

    def test_jit_code_shared_for_node(self, node_view):
        assert node_view["jit_code"]["shared_fraction"] > 0.75

    def test_python_jit_code_mostly_private(self):
        view = run_fig4_view(language="python", n_clones=8)
        # Numba relocations dirty the JIT region at run time (§5.5.2).
        assert view["jit_code"]["shared_fraction"] < 0.5

    def test_pss_never_exceeds_rss(self, node_view):
        for region, stats in node_view.items():
            assert stats["pss_mb"] <= stats["rss_mb"] + 1e-9, region

    def test_sharing_by_region_across_ten_clones(self):
        """§3.3: the OS, runtime, app text and even the JITted code stay
        shared; the argument-specific heap is mostly private and the
        host-side VMM entirely private."""
        view = run_fig4_view(n_clones=10)
        for region in ("kernel", "runtime", "app", "jit_code"):
            assert view[region]["shared_fraction"] > 0.75, region
        assert view["heap"]["shared_fraction"] < 0.55
        assert view["vmm"]["shared_fraction"] == 0.0
