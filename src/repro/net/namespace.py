"""Network namespaces and tap devices.

§3.5: snapshot clones share the same guest IP/MAC and even the same tap
device *name* (``tap0``); putting each microVM in its own namespace makes the
duplicate names and addresses non-conflicting.  This module enforces exactly
that invariant: registering a duplicate address or device name *within one
namespace* raises :class:`AddressConflictError`, while duplicates across
namespaces are fine.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import AddressConflictError, NetworkError
from repro.net.address import IpAddress, MacAddress
from repro.net.nat import NatTable


class TapDevice:
    """A tap device endpoint inside a namespace.

    The tap names its namespace rather than pointing at it: the namespace
    holds its devices, so a back-pointer would make every clone's network
    state a reference cycle that only the cyclic GC frees.
    """

    def __init__(self, name: str, namespace_name: str) -> None:
        self.name = name
        self.namespace_name = namespace_name
        self.rx_packets = 0
        self.tx_packets = 0

    def __repr__(self) -> str:
        return f"<tap {self.namespace_name}/{self.name}>"


class NetworkNamespace:
    """One network namespace: devices, bound addresses, and a NAT table."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nat = NatTable(name)
        self._devices: Dict[str, TapDevice] = {}
        self._bound_ips: Dict[IpAddress, str] = {}
        self._bound_macs: Dict[MacAddress, str] = {}

    # -- devices ---------------------------------------------------------------
    def create_tap(self, name: str) -> TapDevice:
        """Create tap device *name*; duplicate names conflict per-namespace."""
        if name in self._devices:
            raise AddressConflictError(
                f"device {name!r} already exists in namespace {self.name!r}")
        device = TapDevice(name, self.name)
        self._devices[name] = device
        return device

    def device(self, name: str) -> TapDevice:
        """Look up a device by name; NetworkError if absent."""
        if name not in self._devices:
            raise NetworkError(
                f"no device {name!r} in namespace {self.name!r}")
        return self._devices[name]

    # -- addresses ---------------------------------------------------------------
    def bind(self, device_name: str, ip: IpAddress, mac: MacAddress) -> None:
        """Assign *ip*/*mac* to a device; duplicates conflict per-namespace."""
        self.device(device_name)  # existence check
        if ip in self._bound_ips:
            raise AddressConflictError(
                f"IP {ip} already bound to {self._bound_ips[ip]!r} "
                f"in namespace {self.name!r}")
        if mac in self._bound_macs:
            raise AddressConflictError(
                f"MAC {mac} already bound to {self._bound_macs[mac]!r} "
                f"in namespace {self.name!r}")
        self._bound_ips[ip] = device_name
        self._bound_macs[mac] = device_name

    def is_bound(self, ip: IpAddress) -> bool:
        """Whether *ip* is bound to a device here."""
        return ip in self._bound_ips


class NamespaceManager:
    """Creates uniquely named namespaces on the host."""

    def __init__(self) -> None:
        self._namespaces: Dict[str, NetworkNamespace] = {}
        self._counter = 0

    def create(self, name: str = "") -> NetworkNamespace:
        """Create a (uniquely named) namespace."""
        if not name:
            self._counter += 1
            name = f"fc-ns-{self._counter}"
        if name in self._namespaces:
            raise NetworkError(f"namespace {name!r} already exists")
        namespace = NetworkNamespace(name)
        self._namespaces[name] = namespace
        return namespace

    def destroy(self, name: str) -> None:
        """Remove a namespace; NetworkError if absent."""
        if name not in self._namespaces:
            raise NetworkError(f"no namespace {name!r}")
        del self._namespaces[name]

    def get(self, name: str) -> NetworkNamespace:
        """Look up a namespace by name."""
        if name not in self._namespaces:
            raise NetworkError(f"no namespace {name!r}")
        return self._namespaces[name]

    def __len__(self) -> int:
        return len(self._namespaces)
