"""Unit tests for Host and Cluster bookkeeping."""

import pytest

from repro.cluster import Cluster, Host
from repro.config import default_parameters
from repro.errors import PlatformError, ValidationError
from repro.policy.placement import (POLICY_ROUND_ROBIN,
                                    POLICY_SNAPSHOT_LOCALITY, home_index)
from repro.sim import Simulation


@pytest.fixture
def params():
    return default_parameters()


@pytest.fixture
def sim():
    return Simulation()


class TestHost:
    def test_owns_its_resources(self, sim, params):
        host = Host(sim, params, host_id=3)
        assert host.node_id == 3
        assert host.memory is not Host(sim, params, host_id=4).memory
        assert host.store.device.name == "host3-ssd"
        assert host.cpu is None  # unbounded unless cores are given

    def test_capacity_validation(self, sim, params):
        with pytest.raises(PlatformError, match="capacity"):
            Host(sim, params, capacity=0)

    def test_assign_release_counting(self, sim, params):
        host = Host(sim, params, capacity=2)
        host.assign("fn")
        host.assign("fn")
        assert not host.has_room
        with pytest.raises(PlatformError, match="over capacity"):
            host.assign("fn")
        host.release()
        assert host.has_room
        assert host.assigned_total == 2
        assert host.per_function["fn"] == 2

    def test_release_below_zero_raises(self, sim, params):
        host = Host(sim, params)
        with pytest.raises(PlatformError, match="below zero"):
            host.release()


class TestCluster:
    def test_validation(self, sim, params):
        with pytest.raises(PlatformError, match=">= 1 host"):
            Cluster(sim, params, n_hosts=0)
        with pytest.raises(ValidationError, match="unknown placement"):
            Cluster(sim, params, policy="random")
        with pytest.raises(PlatformError, match="no host 7"):
            Cluster(sim, params, n_hosts=2).host(7)

    def test_home_host_is_stable_hash(self, sim, params):
        cluster = Cluster(sim, params, n_hosts=4)
        assert cluster.home_host("fn-00").host_id == home_index("fn-00", 4)
        assert cluster.home_host("fn-00") is cluster.home_host("fn-00")

    def test_place_finish_bookkeeping(self, sim, params):
        cluster = Cluster(sim, params, n_hosts=3,
                          policy=POLICY_ROUND_ROBIN)
        first = cluster.place("fn")
        second = cluster.place("fn")
        assert {first.host_id, second.host_id} == {0, 1}
        assert cluster.total_active() == 2
        cluster.finish(first)
        cluster.finish(second)
        assert cluster.total_active() == 0
        assert cluster.load_spread() == 1  # hosts 0,1 got one each

    def test_snapshot_locality_consults_callback(self, sim, params):
        cluster = Cluster(sim, params, n_hosts=4,
                          policy=POLICY_SNAPSHOT_LOCALITY)
        resident = cluster.place("fn", locality=lambda h: h.host_id == 2)
        assert resident.host_id == 2
        cluster.finish(resident)
        # No resident host: falls back to the hash home.
        fallback = cluster.place("fn", locality=lambda h: False)
        assert fallback.host_id == home_index("fn", 4)
