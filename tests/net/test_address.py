"""Unit tests for IP/MAC value objects and allocators."""

import pytest

from repro.errors import NetworkError
from repro.net.address import (IpAddress, IpAllocator, MacAddress,
                               MacAllocator, ip_range)


class TestIpAddress:
    def test_parse_and_render(self):
        ip = IpAddress.parse("172.17.0.1")
        assert str(ip) == "172.17.0.1"
        assert ip.value == (172 << 24) | (17 << 16) | 1

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "a.b.c.d",
                                     "256.0.0.1", "-1.0.0.0"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(NetworkError):
            IpAddress.parse(bad)

    def test_equality_means_conflict(self):
        assert IpAddress.parse("10.0.0.1") == IpAddress.parse("10.0.0.1")
        assert IpAddress.parse("10.0.0.1") != IpAddress.parse("10.0.0.2")

    def test_out_of_range_value(self):
        with pytest.raises(NetworkError):
            IpAddress(2**32)

    def test_ordering(self):
        assert IpAddress.parse("10.0.0.1") < IpAddress.parse("10.0.0.2")


class TestMacAddress:
    def test_render(self):
        assert str(MacAddress(0x02F17E000001)) == "02:f1:7e:00:00:01"

    def test_out_of_range(self):
        with pytest.raises(NetworkError):
            MacAddress(2**48)


class TestAllocators:
    def test_ip_allocator_unique(self):
        allocator = IpAllocator()
        ips = {allocator.allocate() for _ in range(100)}
        assert len(ips) == 100
        assert allocator.allocated() == 100

    def test_ip_pool_exhaustion(self):
        allocator = IpAllocator(count=2)
        allocator.allocate()
        allocator.allocate()
        with pytest.raises(NetworkError):
            allocator.allocate()

    def test_ip_allocator_hands_out_fresh_addresses_first(self):
        """Until the pool wraps, a release changes no later address."""
        allocator = IpAllocator(count=4)
        first = allocator.allocate()
        second = allocator.allocate()
        allocator.release(first)
        assert allocator.allocate() == IpAddress(second.value + 1)
        assert allocator.allocate() == IpAddress(second.value + 2)
        assert allocator.allocated() == 3

    def test_ip_allocator_reuses_in_order_after_wrapping(self):
        allocator = IpAllocator(count=3)
        a, b, c = (allocator.allocate() for _ in range(3))
        allocator.release(c)
        allocator.release(a)
        # The cursor wraps to the pool's start, skipping b (still out).
        assert allocator.allocate() == a
        assert allocator.allocate() == c
        with pytest.raises(NetworkError):
            allocator.allocate()
        allocator.release(b)
        assert allocator.allocate() == b

    def test_ip_release_of_an_unallocated_address_raises(self):
        allocator = IpAllocator(count=2)
        address = allocator.allocate()
        allocator.release(address)
        with pytest.raises(NetworkError):
            allocator.release(address)
        with pytest.raises(NetworkError):
            allocator.release(IpAddress.parse("1.2.3.4"))

    def test_mac_allocator_unique(self):
        allocator = MacAllocator()
        macs = {allocator.allocate() for _ in range(100)}
        assert len(macs) == 100

    def test_ip_range(self):
        ips = list(ip_range("10.0.0.250", 3))
        assert [str(ip) for ip in ips] == \
            ["10.0.0.250", "10.0.0.251", "10.0.0.252"]
