"""Property-based tests: each clone's NAT rule pair is its own."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.address import IpAddress, MacAddress
from repro.net.bridge import HostBridge

guest_ips = st.integers(min_value=0x0A000002,
                        max_value=0x0A0000FF).map(IpAddress)


class TestNatBijection:
    @given(st.lists(guest_ips, min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_clones_always_reachable_and_distinct(self, ips):
        """Any number of clones, any (possibly identical) guest IPs:
        external IPs stay unique and each clone's namespace maps its own
        external IP to its guest IP."""
        bridge = HostBridge()
        mac = MacAddress(0x02F17E000001)
        endpoints = [bridge.connect_guest(ip, mac) for ip in ips]

        externals = [e.external_ip for e in endpoints]
        assert len(set(externals)) == len(externals)

        for endpoint in endpoints:
            nat = endpoint.namespace.nat
            assert nat.rule_count() == 1
            assert nat.external_for(endpoint.guest_ip) == \
                endpoint.external_ip

    @given(st.integers(1, 40))
    @settings(max_examples=30)
    def test_connect_disconnect_is_clean(self, n):
        bridge = HostBridge()
        mac = MacAddress(0x02F17E000001)
        guest = IpAddress.parse("10.0.0.2")
        endpoints = [bridge.connect_guest(guest, mac) for _ in range(n)]
        for endpoint in endpoints:
            bridge.disconnect(endpoint)
        assert bridge.endpoint_count() == 0
        assert len(bridge.namespaces) == 0
