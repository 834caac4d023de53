"""Unit tests for microVM specifics: guest identity and MMDS."""

import pytest

from repro.errors import SandboxError
from repro.net.address import IpAddress, MacAddress
from repro.sandbox.microvm import MicroVM, Mmds

GUEST_IP = IpAddress.parse("10.0.0.2")
GUEST_MAC = MacAddress(0x02F17E000001)


class TestGuestIdentity:
    def test_assign_once(self, sim, params, host):
        vm = MicroVM(sim, params, host, "nodejs")
        vm.assign_guest_addresses(GUEST_IP, GUEST_MAC)
        assert vm.guest_ip == GUEST_IP
        assert vm.guest_mac == GUEST_MAC

    def test_reassign_raises(self, sim, params, host):
        vm = MicroVM(sim, params, host, "nodejs")
        vm.assign_guest_addresses(GUEST_IP, GUEST_MAC)
        with pytest.raises(SandboxError):
            vm.assign_guest_addresses(GUEST_IP, GUEST_MAC)


class TestMmds:
    def test_put_get(self):
        mmds = Mmds()
        mmds.put("fcID", "fc42")
        assert mmds.get("fcID") == "fc42"

    def test_missing_key_raises(self):
        with pytest.raises(SandboxError):
            Mmds().get("fcID")

    def test_overwrite(self):
        mmds = Mmds()
        mmds.put("k", "1")
        mmds.put("k", "2")
        assert mmds.get("k") == "2"
