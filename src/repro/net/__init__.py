"""Network substrate: addresses, namespaces, NAT, taps, host bridge."""

from repro.net.address import (IpAddress, IpAllocator, MacAddress,
                               MacAllocator)
from repro.net.bridge import Endpoint, HostBridge
from repro.net.namespace import (NamespaceManager, NetworkNamespace,
                                 TapDevice)
from repro.net.nat import NatTable

__all__ = [
    "Endpoint",
    "HostBridge",
    "IpAddress",
    "IpAllocator",
    "MacAddress",
    "MacAllocator",
    "NamespaceManager",
    "NatTable",
    "NetworkNamespace",
    "TapDevice",
]
