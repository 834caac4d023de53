"""Unit tests for NAT tables (Figure 5's rule pairs)."""

import pytest

from repro.errors import NetworkError
from repro.net.address import IpAddress
from repro.net.nat import NatTable

GUEST = IpAddress.parse("10.0.0.2")       # A.A.A.A
EXTERNAL = IpAddress.parse("10.128.0.2")  # B.B.B.B
CLIENT = IpAddress.parse("192.168.1.9")


@pytest.fixture
def nat():
    table = NatTable("ns1")
    table.add_rule(EXTERNAL, GUEST)
    return table


class TestRules:
    def test_duplicate_external_raises(self, nat):
        with pytest.raises(NetworkError):
            nat.add_rule(EXTERNAL, IpAddress.parse("10.0.0.3"))

    def test_duplicate_internal_raises(self, nat):
        with pytest.raises(NetworkError):
            nat.add_rule(IpAddress.parse("10.128.0.3"), GUEST)

    def test_remove_rule(self, nat):
        nat.remove_rule(EXTERNAL)
        assert nat.rule_count() == 0
        with pytest.raises(NetworkError):
            nat.remove_rule(EXTERNAL)

    def test_a_removed_pair_frees_both_addresses(self, nat):
        nat.remove_rule(EXTERNAL)
        other = IpAddress.parse("10.128.0.3")
        nat.add_rule(other, GUEST)
        nat.add_rule(EXTERNAL, IpAddress.parse("10.0.0.3"))
        assert nat.rule_count() == 2
        assert nat.external_for(GUEST) == other

    def test_external_for(self, nat):
        assert nat.external_for(GUEST) == EXTERNAL
        with pytest.raises(NetworkError):
            nat.external_for(CLIENT)
