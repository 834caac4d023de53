"""Unit tests for the host bridge (Figure 5's per-clone wiring)."""

import gc
import weakref

import pytest

from repro.errors import NetworkError
from repro.net.address import IpAddress, MacAddress
from repro.net.bridge import HostBridge

GUEST_IP = IpAddress.parse("10.0.0.2")
GUEST_MAC = MacAddress(0x02F17E000001)


@pytest.fixture
def bridge():
    return HostBridge()


class TestConnectivity:
    def test_two_clones_same_identity(self, bridge):
        """The Figure 5 scenario: two microVMs from the same snapshot."""
        ep1 = bridge.connect_guest(GUEST_IP, GUEST_MAC)
        ep2 = bridge.connect_guest(GUEST_IP, GUEST_MAC)
        assert ep1.external_ip != ep2.external_ip
        assert ep1.namespace.name != ep2.namespace.name
        assert ep1.tap.name == ep2.tap.name == "tap0"

    def test_each_clone_gets_its_own_nat_pair(self, bridge):
        """Replies leave each namespace under that clone's external IP
        (SNAT), though every clone has the same guest address."""
        endpoints = [bridge.connect_guest(GUEST_IP, GUEST_MAC)
                     for _ in range(3)]
        for endpoint in endpoints:
            assert endpoint.namespace.nat.rule_count() == 1
            assert endpoint.namespace.nat.external_for(GUEST_IP) == \
                endpoint.external_ip


class TestLifecycle:
    def test_disconnect_releases_route_and_namespace(self, bridge):
        endpoint = bridge.connect_guest(GUEST_IP, GUEST_MAC)
        assert bridge.endpoint_count() == 1
        bridge.disconnect(endpoint)
        assert bridge.endpoint_count() == 0
        assert len(bridge.namespaces) == 0
        with pytest.raises(NetworkError):
            bridge.disconnect(endpoint)

    def test_disconnect_removes_the_nat_pair(self, bridge):
        endpoint = bridge.connect_guest(GUEST_IP, GUEST_MAC)
        bridge.disconnect(endpoint)
        assert endpoint.namespace.nat.rule_count() == 0
        with pytest.raises(NetworkError):
            endpoint.namespace.nat.external_for(GUEST_IP)

    def test_many_clones_scale(self, bridge):
        endpoints = [bridge.connect_guest(GUEST_IP, GUEST_MAC)
                     for _ in range(50)]
        assert len({e.external_ip for e in endpoints}) == 50
        assert bridge.endpoint_count() == 50

    def test_fresh_guest_addresses_unique(self, bridge):
        pairs = [bridge.allocate_guest_addresses() for _ in range(20)]
        assert len({ip for ip, _ in pairs}) == 20
        assert len({mac for _, mac in pairs}) == 20


class TestTeardownReleasesEverything:
    def test_namespace_freed_by_refcounting(self, bridge):
        """A retired clone's network state goes without the cyclic GC."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            endpoint = bridge.connect_guest(GUEST_IP, GUEST_MAC)
            namespace = weakref.ref(endpoint.namespace)
            tap = weakref.ref(endpoint.tap)
            bridge.disconnect(endpoint)
            del endpoint
            assert namespace() is None
            assert tap() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_tap_repr_names_its_namespace(self, bridge):
        endpoint = bridge.connect_guest(GUEST_IP, GUEST_MAC)
        assert repr(endpoint.tap) == f"<tap {endpoint.namespace.name}/tap0>"

    def test_external_ips_are_recycled(self, bridge):
        """More connect/disconnect cycles than the pool has addresses."""
        for _ in range(70_000):
            bridge.disconnect(bridge.connect_guest(GUEST_IP, GUEST_MAC))
        assert bridge.endpoint_count() == 0

    def test_pool_still_bounds_simultaneous_endpoints(self, bridge):
        for _ in range(65_000):
            bridge.connect_guest(GUEST_IP, GUEST_MAC)
        with pytest.raises(NetworkError, match="exhausted"):
            bridge.connect_guest(GUEST_IP, GUEST_MAC)
