"""The ``cluster`` experiment's warm-affinity claim, and OpenWhisk's
host-local warm containers on a multi-host cluster."""

import pytest

from repro.bench.engine import run_experiments
from repro.platforms.scheduler import POLICY_HASH, POLICY_ROUND_ROBIN


class TestClusterWarmHits:
    """Hash placement revisits each function's home host inside the
    keep-alive window; round-robin sprays requests and arrives after the
    warm container expired."""

    @pytest.fixture(scope="class", params=[11, 2022])
    def outcomes(self, request):
        return run_experiments(["cluster"], seed=request.param,
                               use_cache=False).results["cluster"]

    def test_hash_beats_round_robin_on_warm_hits(self, outcomes):
        assert outcomes[POLICY_HASH].warm_hit_rate > \
            outcomes[POLICY_ROUND_ROBIN].warm_hit_rate + 0.1

    def test_round_robin_spreads_most_evenly(self, outcomes):
        spreads = {policy: outcome.load_spread
                   for policy, outcome in outcomes.items()}
        assert spreads[POLICY_ROUND_ROBIN] == min(spreads.values())

    def test_all_policies_complete_the_stream(self, outcomes):
        requests = {outcome.requests for outcome in outcomes.values()}
        assert len(requests) == 1  # one trace, replayed per policy
        assert all(outcome.latency.count == outcome.requests
                   for outcome in outcomes.values())

    def test_locality_translates_to_latency(self, outcomes):
        """Round-robin's cross-host snapshot copies cost start-up time."""
        assert outcomes[POLICY_HASH].latency.mean_ms < \
            outcomes[POLICY_ROUND_ROBIN].latency.mean_ms


class TestOpenWhiskOnCluster:
    def test_warm_containers_are_host_local(self):
        from repro.bench import (fresh_cluster_platform, install_all,
                                 invoke_once)
        from repro.platforms.openwhisk import OpenWhiskPlatform
        from repro.workloads import faasdom_spec

        platform = fresh_cluster_platform(OpenWhiskPlatform, n_hosts=2,
                                          policy=POLICY_ROUND_ROBIN)
        spec = faasdom_spec("faas-netlatency", "nodejs")
        install_all(platform, [spec])
        # Round-robin alternates hosts; with one function the second
        # request lands on the other host and must cold start.
        invoke_once(platform, spec.name)
        invoke_once(platform, spec.name)
        assert platform.cold_starts == 2
        # Third request wraps to host 0, whose container is warm.
        invoke_once(platform, spec.name)
        assert platform.warm_starts == 1

    def test_host_slots_released_after_invocation(self):
        from repro.bench import (fresh_cluster_platform, install_all,
                                 invoke_once)
        from repro.platforms.openwhisk import OpenWhiskPlatform
        from repro.workloads import faasdom_spec

        platform = fresh_cluster_platform(OpenWhiskPlatform, n_hosts=1,
                                          capacity_per_host=1)
        spec = faasdom_spec("faas-netlatency", "nodejs")
        install_all(platform, [spec])
        for _ in range(3):  # would deadlock if slots leaked
            invoke_once(platform, spec.name)
        assert platform.cluster.total_active() == 0
