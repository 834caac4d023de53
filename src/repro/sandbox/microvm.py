"""Firecracker-style microVM sandbox.

The microVM has its own guest kernel (mapped at boot), a guest network
identity (IP/MAC) that snapshot clones inherit verbatim (§3.5), and a
MicroVM Metadata Service (MMDS) key/value store reachable from the guest
(§3.2/§3.6 — how clones learn their instance identity).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import SandboxError
from repro.net.address import IpAddress, MacAddress
from repro.sandbox.base import ISOLATION_HIGH_VM, Sandbox, SandboxShell


class Mmds:
    """The microVM Metadata Service: host-writable, guest-readable."""

    def __init__(self) -> None:
        self._data: Dict[str, str] = {}

    def put(self, key: str, value: str) -> None:
        """Host side: write a metadata key."""
        self._data[key] = value

    def get(self, key: str) -> str:
        """Guest side: read a metadata key; errors if absent."""
        if key not in self._data:
            raise SandboxError(f"MMDS has no key {key!r}")
        return self._data[key]


class MicroVM(Sandbox):
    """A Firecracker microVM: the highest isolation level in Table 1."""

    mechanism = "microvm"
    isolation = ISOLATION_HIGH_VM

    def __init__(self, sim, params, host_memory, language,
                 name: str = "", mmds: Optional[Mmds] = None,
                 shell: Optional[SandboxShell] = None) -> None:
        super().__init__(sim, params, host_memory, language, name=name,
                         shell=shell)
        self.guest_ip: Optional[IpAddress] = None
        self.guest_mac: Optional[MacAddress] = None
        # A clone may be handed a pre-populated MMDS (identity written
        # before restore, §3.4); a booted VM starts with an empty one.
        self.mmds = mmds if mmds is not None else Mmds()
        self.restored_from_snapshot = False

    def assign_guest_addresses(self, ip: IpAddress, mac: MacAddress) -> None:
        """Set the guest's network identity (done once, pre-boot)."""
        if self.guest_ip is not None:
            raise SandboxError(f"{self.name} already has a guest IP")
        self.guest_ip = ip
        self.guest_mac = mac

    def _map_boot_memory(self) -> None:
        # A VM boots its own kernel; containers (subclasses elsewhere) don't.
        self.space.map_private("kernel", self.layout.kernel_mb, "kernel")

    def __repr__(self) -> str:
        origin = "snapshot" if self.restored_from_snapshot else "boot"
        return f"<MicroVM {self.name} {self.state} from-{origin}>"
