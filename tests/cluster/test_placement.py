"""Placement policies driving the real invoke path."""

import pytest

from repro.bench import fresh_cluster_platform, install_all, invoke_once
from repro.platforms.openwhisk import OpenWhiskPlatform
from repro.policy.placement import (POLICY_HASH, POLICY_ROUND_ROBIN,
                                    home_index)
from repro.workloads import faasdom_spec


@pytest.fixture
def spec():
    return faasdom_spec("faas-netlatency", "nodejs")


class TestPolicyOnInvokePath:
    def test_hash_concentrates_warm_hits(self, spec):
        platform = fresh_cluster_platform(OpenWhiskPlatform, n_hosts=4,
                                          policy=POLICY_HASH)
        install_all(platform, [spec])
        for _ in range(4):
            invoke_once(platform, spec.name)
        assert platform.ledger.by_mode == {"cold": 1, "warm": 3}

    def test_round_robin_pays_cold_start_per_host(self, spec):
        platform = fresh_cluster_platform(OpenWhiskPlatform, n_hosts=4,
                                          policy=POLICY_ROUND_ROBIN)
        install_all(platform, [spec])
        for _ in range(4):
            invoke_once(platform, spec.name)
        # Each request lands on a different host's (empty) warm pool.
        assert platform.ledger.by_mode == {"cold": 4}

    def test_capacity_overflow_fails_over_to_next_host(self, spec):
        platform = fresh_cluster_platform(OpenWhiskPlatform, n_hosts=2,
                                          policy=POLICY_HASH,
                                          capacity_per_host=1)
        install_all(platform, [spec])
        sim = platform.sim
        # Two concurrent requests: hash sends both to the home host, but
        # its single slot is taken, so the second probes the next host.
        processes = [sim.process(platform.invoke(spec.name))
                     for _ in range(2)]
        sim.run()
        hosts = sorted(p.value.host_id for p in processes)
        assert hosts == [0, 1]
        assert all(h.assigned_total == 1 for h in platform.cluster.hosts)
        assert platform.cluster.total_active() == 0

    def test_placement_span_records_host_and_policy(self, spec):
        platform = fresh_cluster_platform(OpenWhiskPlatform, n_hosts=4,
                                          policy=POLICY_HASH)
        install_all(platform, [spec])
        record = invoke_once(platform, spec.name)
        placement = record.span.find("placement")
        assert placement.attrs["policy"] == POLICY_HASH
        assert placement.attrs["host"] == home_index(spec.name, 4)
        assert placement.attrs["host"] == record.host_id

    def test_single_host_default_places_on_host_zero(self, spec):
        platform = fresh_cluster_platform(OpenWhiskPlatform)
        install_all(platform, [spec])
        record = invoke_once(platform, spec.name)
        assert record.host_id == 0
        assert record.span.find("placement").attrs["host"] == 0
