"""The host bridge: routes packets to namespaces by external IP (Figure 5).

The bridge owns the pool of externally visible addresses.  Connecting a
microVM allocates an external IP, installs the NAT pair in the microVM's
namespace (DNAT in, SNAT out: the paper's bridge -> namespace NAT -> tap
-> guest path), and registers the route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import NetworkError
from repro.net.address import IpAddress, IpAllocator, MacAddress, MacAllocator
from repro.net.namespace import NamespaceManager, NetworkNamespace, TapDevice


@dataclass(frozen=True)
class Endpoint:
    """A connected guest endpoint as seen from the host."""

    external_ip: IpAddress
    guest_ip: IpAddress
    guest_mac: MacAddress
    namespace: NetworkNamespace
    tap: TapDevice


class HostBridge:
    """Routes external traffic into per-microVM namespaces."""

    def __init__(self) -> None:
        self.namespaces = NamespaceManager()
        self._ip_allocator = IpAllocator()
        self._mac_allocator = MacAllocator()
        self._routes: Dict[IpAddress, Endpoint] = {}

    # -- wiring -----------------------------------------------------------------
    def connect_guest(self, guest_ip: IpAddress, guest_mac: MacAddress,
                      tap_name: str = "tap0") -> Endpoint:
        """Give a guest (possibly a snapshot clone) external connectivity.

        Creates a fresh namespace, the tap device (same name across clones is
        fine — different namespaces), binds the guest addresses, installs the
        NAT pair, and returns the endpoint with its external IP.
        """
        namespace = self.namespaces.create()
        tap = namespace.create_tap(tap_name)
        namespace.bind(tap_name, guest_ip, guest_mac)
        external_ip = self._ip_allocator.allocate()
        namespace.nat.add_rule(external_ip, guest_ip)
        endpoint = Endpoint(external_ip, guest_ip, guest_mac, namespace, tap)
        self._routes[external_ip] = endpoint
        return endpoint

    def disconnect(self, endpoint: Endpoint) -> None:
        """Tear down the endpoint's route, NAT rule, and namespace, and
        return its external IP to the pool."""
        if endpoint.external_ip not in self._routes:
            raise NetworkError(f"endpoint {endpoint.external_ip} not routed")
        del self._routes[endpoint.external_ip]
        endpoint.namespace.nat.remove_rule(endpoint.external_ip)
        self.namespaces.destroy(endpoint.namespace.name)
        self._ip_allocator.release(endpoint.external_ip)

    def allocate_guest_addresses(self) -> Tuple[IpAddress, MacAddress]:
        """Fresh guest addresses for a VM booted from scratch (no snapshot)."""
        return self._ip_allocator.allocate(), self._mac_allocator.allocate()

    def endpoint_count(self) -> int:
        """Number of currently routed endpoints."""
        return len(self._routes)

