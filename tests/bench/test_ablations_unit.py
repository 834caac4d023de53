"""Unit tests for the ablation drivers' result structures."""

import pytest

from repro.bench.ablations import (KeepAliveOutcome, run_aot_comparison,
                                   run_catalyzer_comparison,
                                   run_deopt_experiment,
                                   run_keepalive_policy_comparison,
                                   run_policy_comparison,
                                   run_regeneration_demo,
                                   run_remote_store_ablation,
                                   run_restore_policy_ablation,
                                   run_store_eviction_demo)
from repro.snapshot.restorer import (POLICY_DEMAND, POLICY_DEMAND_COLD,
                                     POLICY_REAP)


class TestRestorePolicyDriver:
    def test_reap_removes_the_cold_paging_bottleneck(self):
        results = run_restore_policy_ablation()
        # Cold demand paging is the bottleneck REAP removes [54].
        assert results[POLICY_DEMAND_COLD] > 2 * results[POLICY_REAP]
        # With a warm page cache, plain demand paging is cheapest.
        assert results[POLICY_DEMAND] < results[POLICY_REAP]


class TestDeoptDriver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_deopt_experiment()

    def test_deopts_occur(self, result):
        assert result.total_deopts >= 3  # one per distinct skill shape

    def test_winner_flag_consistent(self, result):
        assert result.fireworks_still_wins == \
            (result.fireworks_mean_ms < result.openwhisk_mean_ms)

    def test_fireworks_still_wins(self, result):
        """§6: with de-optimizations "our evaluation results always show a
        performance improvement"."""
        assert result.fireworks_still_wins


class TestStoreEvictionDriver:
    def test_counts_reconcile(self):
        result = run_store_eviction_demo(capacity_images=3)
        assert result["installed"] == \
            result["resident_images"] + result["evictions"]
        assert len(result["resident_keys"]) == result["resident_images"]
        assert (result["installed"], result["resident_images"],
                result["evictions"]) == (8, 3, 5)

    def test_capacity_one(self):
        result = run_store_eviction_demo(capacity_images=1)
        assert result["resident_images"] == 1
        assert result["evictions"] == 7


class TestRegenerationDriver:
    def test_startup_stable_across_generations(self):
        result = run_regeneration_demo()
        assert result["generation"] == 2.0
        assert result["startup_after_ms"] == pytest.approx(
            result["startup_before_ms"], rel=0.05)
        # Regeneration costs about one snapshot write.
        assert 300 <= result["regeneration_ms"] <= 600


class TestRemoteStoreDriver:
    def test_fetch_cost_scales_with_image(self):
        result = run_remote_store_ablation()
        # Download dominates: remote - local ~ image/bandwidth + rtt.
        transfer_ms = result["remote_fetch_ms"] - result["local_hit_ms"]
        assert transfer_ms > result["image_mb"] / 2.0  # >= slow-ish link
        # Still far below a cold boot.
        assert result["remote_fetch_ms"] > 5 * result["local_hit_ms"]
        assert result["remote_fetch_ms"] < 1000


class TestCatalyzerDriver:
    def test_result_shape(self):
        results = run_catalyzer_comparison(benchmark="faas-netlatency")
        assert set(results) == {"catalyzer", "fireworks"}
        for values in results.values():
            assert values["cold_startup_ms"] > 0
            assert values["exec_ms"] > 0

    def test_sfork_warms_faster_but_fireworks_wins_the_rest(self):
        """Table 1's shape, measured: sfork warms faster than a restore,
        but Fireworks wins cold start, execution (post-JIT and no gVisor
        I/O tax) and isolation level."""
        results = run_catalyzer_comparison()
        catalyzer, fireworks = results["catalyzer"], results["fireworks"]
        assert catalyzer["warm_startup_ms"] < fireworks["warm_startup_ms"]
        assert fireworks["cold_startup_ms"] < catalyzer["cold_startup_ms"]
        assert fireworks["exec_ms"] < catalyzer["exec_ms"]
        assert fireworks["isolation"] > catalyzer["isolation"]


class TestAotDriver:
    def test_aot_matches_exec_but_shares_nothing(self):
        """AOT removes the JIT penalty, but shares nothing (§7): cold start
        and per-instance memory lose."""
        results = run_aot_comparison()
        aot = results["dotnet-aot-firecracker"]
        fireworks = results["nodejs-postjit-fireworks"]
        assert aot["exec_ms"] == pytest.approx(fireworks["exec_ms"],
                                               rel=0.05)
        assert aot["jit_compile_ms"] == 0.0
        assert fireworks["cold_startup_ms"] < aot["cold_startup_ms"] / 50
        assert fireworks["per_vm_pss_mb"] < aot["per_vm_pss_mb"] / 2


class TestKeepAlivePolicies:
    def test_frontier(self):
        results = run_keepalive_policy_comparison()
        fixed = results["fixed-10min"]
        hybrid = results["hybrid-histogram"]
        fireworks = results["fireworks"]
        # The adaptive policy trades along the frontier: much less idle
        # memory at (nearly) the same warm-hit rate.
        assert hybrid.idle_sandbox_mb < fixed.idle_sandbox_mb * 0.7
        assert hybrid.warm_hit_rate > fixed.warm_hit_rate - 0.05
        # Fireworks sits off the frontier: no idle sandboxes AND the
        # lowest latency.
        assert fireworks.idle_sandbox_mb < 1.0
        assert fireworks.mean_latency_ms < hybrid.mean_latency_ms / 2


class TestWarmPoolVsSnapshot:
    def test_snapshot_beats_warm_pool(self):
        result = run_policy_comparison(n_functions=16,
                                       duration_ms=1_200_000.0)
        # §1: warm pools miss for rarely-invoked functions; Fireworks'
        # flat snapshot resume beats the mixed cold/warm mean.
        assert result.fireworks_mean_latency_ms < \
            result.openwhisk_mean_latency_ms
        # §2.2: warm containers sit idle holding memory; Fireworks holds
        # no idle sandboxes at all (only evictable page cache).
        assert result.fireworks_idle_sandbox_mb < \
            result.openwhisk_idle_sandbox_mb / 5


class TestKeepAliveOutcome:
    def test_line_format(self):
        outcome = KeepAliveOutcome("x", 12.0, 0.5, 100.0)
        line = outcome.as_line()
        assert "warm-hit= 50.0%" in line
        assert "idle-mem=" in line
