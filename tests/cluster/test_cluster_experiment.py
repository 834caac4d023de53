"""The ``cluster`` experiment's warm-affinity claim, and OpenWhisk's
host-local warm containers on a multi-host cluster."""

import pytest

from repro.bench.engine import run_experiments
from repro.platforms.scheduler import (POLICY_HASH, POLICY_ROUND_ROBIN,
                                       POLICY_SNAPSHOT_LOCALITY)


class TestClusterWarmHits:
    """Hash placement revisits each function's home host inside the
    keep-alive window; round-robin sprays requests and arrives after the
    warm container expired."""

    @pytest.fixture(scope="class", params=[11, 2022])
    def seed(self, request):
        return request.param

    @pytest.fixture(scope="class")
    def outcomes(self, seed):
        return run_experiments(["cluster"], seed=seed,
                               use_cache=False).results["cluster"]

    def test_hash_beats_round_robin_on_warm_hits(self, outcomes):
        assert outcomes[POLICY_HASH].warm_hit_rate > \
            outcomes[POLICY_ROUND_ROBIN].warm_hit_rate + 0.1

    def test_locality_keeps_restores_on_the_image_host(self, outcomes):
        """Snapshot-locality placement restores where the image already
        is; round-robin pays cross-host snapshot transfers."""
        locality = outcomes[POLICY_SNAPSHOT_LOCALITY]
        round_robin = outcomes[POLICY_ROUND_ROBIN]
        assert locality.restore_locality_rate > \
            round_robin.restore_locality_rate
        assert locality.cross_host_transfers < \
            round_robin.cross_host_transfers

    def test_rerun_is_identical(self, outcomes, seed):
        assert run_experiments(["cluster"], seed=seed, use_cache=False
                               ).results["cluster"] == outcomes

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
